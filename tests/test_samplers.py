import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submcmc import (
    ConfigError,
    Dataset,
    DependenceConfig,
    DifferenceConfig,
    ExactControlVariate,
    GaussianPrior,
    HmcConfig,
    LogisticRegression,
    NormalMeanModel,
    PoissonRegression,
    ProposalConfig,
    SamplerError,
    SubsampleState,
    difference_estimate,
    draw_bpm,
    draw_cpm,
    draw_srs,
    hmc_ecs_run,
    hmc_run,
    leapfrog,
    mh_run,
    pmmh_run,
    propose_u,
    signed_expectation,
    subsampled_potential,
)
from submcmc.control_variates import bind_differences
from submcmc.models import ModelSpec
from submcmc.samplers import _IndexChunks, _streams


class FlatModel(ModelSpec):
    """Zero log-likelihood: the chain targets the prior exactly."""

    def __init__(self, prior):
        super().__init__(prior)

    def dim(self, dataset):
        return 2

    def loglik(self, theta, dataset, idx=None):
        k = dataset.n if idx is None else len(np.atleast_1d(idx))
        return np.zeros(k)

    def grad_theta(self, theta, dataset, idx=None):
        k = dataset.n if idx is None else len(np.atleast_1d(idx))
        return np.zeros((k, np.asarray(theta).size))

    def hess_theta(self, theta, dataset, idx=None):
        k = dataset.n if idx is None else len(np.atleast_1d(idx))
        d = np.asarray(theta).size
        return np.zeros((k, d, d))

    def loglik_at(self, theta, Z):
        return np.zeros(np.atleast_2d(Z).shape[0])

    def grad_data(self, theta, Z):
        return np.zeros_like(np.atleast_2d(Z))

    def hess_data(self, theta, Z):
        Z = np.atleast_2d(Z)
        return np.zeros((Z.shape[0], Z.shape[1], Z.shape[1]))


class SteppedTargetModel(ModelSpec):
    """Piecewise-constant log-density over five unit intervals on [0, 5);
    minus infinity elsewhere.  A likelihood table in disguise."""

    LOG_WEIGHTS = np.log(np.array([0.1, 0.3, 0.05, 0.35, 0.2]))

    def __init__(self):
        super().__init__(GaussianPrior(mean=2.5, sd=1e6))

    def dim(self, dataset):
        return 1

    def loglik(self, theta, dataset, idx=None):
        t = float(np.asarray(theta).reshape(-1)[0])
        k = dataset.n if idx is None else len(np.atleast_1d(idx))
        if 0.0 <= t < 5.0:
            return np.full(k, self.LOG_WEIGHTS[int(t)])
        return np.full(k, -np.inf)

    def grad_theta(self, theta, dataset, idx=None):
        raise NotImplementedError

    def hess_theta(self, theta, dataset, idx=None):
        raise NotImplementedError

    def loglik_at(self, theta, Z):
        raise NotImplementedError

    def grad_data(self, theta, Z):
        raise NotImplementedError

    def hess_data(self, theta, Z):
        raise NotImplementedError


def fd4(f, x, j, h=1e-4):
    """Fourth-order central difference in coordinate j."""
    e = np.zeros_like(x)
    e[j] = h
    return (8.0 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12.0 * h)


@pytest.fixture(scope="module")
def normal_mean_setup():
    rng = np.random.default_rng(100)
    y = rng.normal(0.3, 1.0, size=100)
    ds = Dataset(y=y, X=np.empty((100, 0)))
    return NormalMeanModel(), ds


# ---------------------------------------------------------------------------
# Metropolis-Hastings
# ---------------------------------------------------------------------------


class TestMh:
    def test_identical_seed_gives_bitwise_identical_trace(self, normal_mean_setup):
        model, ds = normal_mean_setup
        conf = ProposalConfig(step_scale=0.3)
        a = mh_run(model, ds, conf, np.array([0.0]), 500, seed=42)
        b = mh_run(model, ds, conf, np.array([0.0]), 500, seed=42)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.accept, b.accept)
        assert np.array_equal(a.loglik_est, b.loglik_est)

    def test_vanishing_proposal_scale_accepts_everything(self, normal_mean_setup):
        model, ds = normal_mean_setup
        trace = mh_run(model, ds, ProposalConfig(step_scale=1e-10), np.array([0.2]),
                       2000, seed=1)
        assert trace.accept.mean() > 0.999

    def test_recovers_conjugate_posterior(self, normal_mean_setup):
        from submcmc import iact, mc_standard_error
        model, ds = normal_mean_setup
        exact_mean, exact_var = model.exact_posterior(ds)
        trace = mh_run(model, ds, ProposalConfig(step_scale=0.25), np.array([0.0]),
                       20_000, seed=2)
        x = trace.draws[2000:, 0]
        est = iact(x)
        assert abs(x.mean() - exact_mean) < 4 * mc_standard_error(x, est)
        assert x.var(ddof=1) == pytest.approx(exact_var, rel=0.15)

    def test_non_finite_start_rejected(self, normal_mean_setup):
        model, ds = normal_mean_setup
        with pytest.raises(SamplerError):
            mh_run(model, ds, ProposalConfig(), np.array([np.nan]), 10, seed=0)

    def test_binned_flows_satisfy_detailed_balance(self):
        # empirical transition flows of a reversible chain are symmetric
        # across any state-space partition
        model = SteppedTargetModel()
        ds = Dataset(y=np.zeros(1), X=np.empty((1, 0)))
        trace = mh_run(model, ds, ProposalConfig(step_scale=1.0), np.array([2.5]),
                       120_000, seed=3)
        # proposals outside [0, 5) have log-likelihood -inf: replaying the
        # proposal stream finds each one rejected and counted as invalid
        start = np.concatenate([[2.5], trace.draws[:-1, 0]])
        proposals = start + _streams(3)[0].standard_normal(trace.n_iter)
        outside = (proposals < 0.0) | (proposals >= 5.0)
        assert trace.meta["invalid_proposals"] == np.count_nonzero(outside) > 0
        assert not trace.accept[outside].any()
        bins = np.clip(trace.draws[5000:, 0].astype(int), 0, 4)
        flows = np.zeros((5, 5))
        np.add.at(flows, (bins[:-1], bins[1:]), 1.0)
        for i in range(5):
            for j in range(i + 1, 5):
                diff = abs(flows[i, j] - flows[j, i])
                scale = math.sqrt(flows[i, j] + flows[j, i])
                assert diff <= 3.0 * max(scale, 1.0), (i, j, flows[i, j], flows[j, i])

    def test_independence_proposal_targets_same_posterior(self, normal_mean_setup):
        model, ds = normal_mean_setup
        exact_mean, exact_var = model.exact_posterior(ds)
        conf = ProposalConfig(kind="independence", step_scale=3 * math.sqrt(exact_var),
                              center=np.array([exact_mean]))
        trace = mh_run(model, ds, conf, np.array([exact_mean]), 20_000, seed=4)
        x = trace.draws[1000:, 0]
        assert abs(x.mean() - exact_mean) < 4 * x.std() / math.sqrt(len(x) / 10)
        assert x.var(ddof=1) == pytest.approx(exact_var, rel=0.15)

    def test_independence_proposal_needs_a_center(self):
        # centred at theta0 instead, an n = 1000 chain accepted 2 of 300 proposals
        with pytest.raises(ConfigError, match="needs a center") as err:
            ProposalConfig(kind="independence", step_scale=0.05)
        assert err.value.field == "proposal_kind"

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_step_scale_must_be_finite_and_positive(self, scale):
        # a NaN scale once made every proposal invalid and raised nothing
        with pytest.raises(ConfigError) as err:
            ProposalConfig(step_scale=scale)
        assert err.value.field == "kappa"


# ---------------------------------------------------------------------------
# Subsample proposals
# ---------------------------------------------------------------------------


def test_full_data_kernels_take_log_factorials_once_per_chain(
        monkeypatch, poisson_model, poisson_example, example_center):
    # log y! depends on the responses alone: one pass per chain, not one per
    # log-likelihood evaluation
    from submcmc import models
    passes = []
    real = models._log_factorial

    def counting(y):
        if np.size(y) == poisson_example.n:
            passes.append(1)
        return real(y)

    monkeypatch.setattr(models, "_log_factorial", counting)
    mh_run(poisson_model, poisson_example, ProposalConfig(step_scale=0.02), example_center,
           30, seed=1)
    assert len(passes) == 1
    hmc_run(poisson_model, poisson_example, HmcConfig(step_size=0.005, n_steps=3),
            example_center, 10, seed=2)
    assert len(passes) == 2


@pytest.mark.parametrize("kernel", ["mh", "hmc"])
def test_logistic_responses_validated_once_per_chain(monkeypatch, poisson_example, kernel):
    # each log-likelihood and gradient sum over all n rows skips the check
    model = LogisticRegression()
    data = Dataset(y=(poisson_example.y > 2).astype(float), X=poisson_example.X)
    calls = []
    real = model.check_response

    def counting(y):
        calls.append(y.size)
        return real(y)

    monkeypatch.setattr(model, "check_response", counting)
    theta0 = np.array([0.5, 1.0])
    if kernel == "mh":
        trace = mh_run(model, data, ProposalConfig(step_scale=0.1), theta0, 20, seed=3)
    else:
        trace = hmc_run(model, data, HmcConfig(step_size=0.01, n_steps=4), theta0, 20, seed=3)
    assert trace.accept.any()
    assert calls == [data.n]


class TestChunkedIndexStream:
    """integers(0, n, size=k) served from chunks equals one rng.integers
    call per request, across refills and requests that straddle them."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 2, 2**32 - 1, 2**32, 2**32 + 1]),
                       st.integers(1, 2**40)),
           chunk=st.integers(1, 40),
           requests=st.lists(st.integers(0, 60), min_size=1, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_call_draws(self, n, chunk, requests, seed):
        stream = _IndexChunks(np.random.Generator(np.random.PCG64(seed)),
                              SimpleNamespace(n=n), chunk, views=False)
        ref = np.random.Generator(np.random.PCG64(seed))
        for k in requests:
            got, want = stream.integers(0, n, size=k), ref.integers(0, n, size=k)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["param", "exact"])
    def test_rows_are_the_gathered_rows(self, poisson_model, poisson_example, param_caches,
                                        kind):
        cache = (param_caches[2] if kind == "param"
                 else ExactControlVariate(poisson_model, poisson_example))
        differ = bind_differences(poisson_model, cache, poisson_example)
        stream = _IndexChunks(np.random.default_rng(4), differ, 50, views=True)
        n = poisson_example.n
        # four requests fit the first chunk of 50; the next two straddle refills
        for k in (12, 12, 12, 12, 30, 25, 7):
            idx = stream.integers(0, n, size=k)
            proposal = SubsampleState(n, idx, np.array([0, k]))
            got, want = stream.rows_of(proposal), differ.gather(idx)
            for name in ("idx", "y", "W", "terms"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or np.array_equal(a, b), name
            # any other array with the same indices is gathered afresh
            copy = SubsampleState(n, idx.copy(), np.array([0, k]))
            assert stream.rows_of(copy).idx is not idx

    def test_serves_integers_from_zero_to_n_only(self):
        stream = _IndexChunks(np.random.default_rng(0), SimpleNamespace(n=10), 8, views=False)
        for low, high in ((1, 10), (0, 9)):
            with pytest.raises(SamplerError):
                stream.integers(low, high, size=3)


class TestProposeU:
    def test_cpm_with_zero_coefficient_matches_independent_frequencies(self):
        n, m, rounds = 20, 5, 20_000
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(6)
        dep = DependenceConfig(kind="cpm", ar_coef=0.0)
        state = draw_cpm(n, m, rng1)
        counts_cpm = np.zeros(n)
        for _ in range(rounds):
            state = propose_u(state, dep, rng1)
            np.add.at(counts_cpm, state.indices, 1.0)
        counts_ind = np.zeros(n)
        ind = DependenceConfig(kind="independent")
        state2 = draw_srs(n, m, rng2)
        for _ in range(rounds):
            state2 = propose_u(state2, ind, rng2)
            np.add.at(counts_ind, state2.indices, 1.0)
        total = rounds * m
        p1, p2 = counts_cpm / total, counts_ind / total
        bound = 4.0 * math.sqrt(2.0 * (1 / n) * (1 - 1 / n) / total)
        assert np.max(np.abs(p1 - p2)) < bound

    def test_cpm_autoregression_preserves_standard_normals(self):
        rng = np.random.default_rng(7)
        state = draw_cpm(1000, 1_000_000, rng)
        dep = DependenceConfig(kind="cpm", ar_coef=0.9)
        out = propose_u(state, dep, rng)
        assert abs(out.gaussians.mean()) < 0.01
        assert out.gaussians.var() == pytest.approx(1.0, rel=0.01)

    def test_bpm_refreshes_exactly_one_block_in_cycle(self):
        rng = np.random.default_rng(8)
        state = draw_bpm(100, 12, 3, rng)
        dep = DependenceConfig(kind="bpm", n_blocks=3)
        seen = []
        cur = state
        for _ in range(3):
            new = propose_u(cur, dep, rng)
            changed = [g for g in range(3)
                       if not np.array_equal(
                           new.indices[new.bounds[g]:new.bounds[g + 1]],
                           cur.indices[cur.bounds[g]:cur.bounds[g + 1]])]
            assert len(changed) == 1
            seen.append(changed[0])
            cur = new
        assert seen == [0, 1, 2]

    def test_bpm_block_refresh_gives_one_minus_one_over_g_correlation(
            self, poisson_model, poisson_example, example_center, param_caches):
        G, m = 10, 1000
        theta = example_center + np.array([0.04, 0.03])
        cache = param_caches[0]
        rng = np.random.default_rng(9)
        state = draw_bpm(poisson_example.n, m, G, rng)
        dep = DependenceConfig(kind="bpm", n_blocks=G)
        rounds = 20_000
        series = np.empty(rounds)
        for r in range(rounds):
            state = propose_u(state, dep, rng)
            series[r] = difference_estimate(poisson_model, cache, poisson_example,
                                            theta, state).value
        x = series - series.mean()
        lag1 = float(x[:-1] @ x[1:] / (x @ x))
        assert abs(lag1 - (1.0 - 1.0 / G)) < 0.05

    def test_kind_mismatches_rejected(self):
        rng = np.random.default_rng(10)
        srs = draw_srs(10, 4, rng)
        with pytest.raises(ConfigError):
            propose_u(srs, DependenceConfig(kind="cpm", ar_coef=0.5), rng)
        with pytest.raises(ConfigError):
            propose_u(srs, DependenceConfig(kind="bpm", n_blocks=2), rng)

    def test_ar_coefficient_range_validated(self):
        with pytest.raises(ConfigError):
            DependenceConfig(kind="cpm", ar_coef=1.0)
        with pytest.raises(ConfigError):
            DependenceConfig(kind="cpm", ar_coef=-0.1)


# ---------------------------------------------------------------------------
# Pseudo-marginal MH
# ---------------------------------------------------------------------------


class TestPmmh:
    def test_zero_variance_estimator_reproduces_mh_decisions(self, poisson_model,
                                                             poisson_example,
                                                             example_center):
        cache = ExactControlVariate(poisson_model, poisson_example)
        proposal = ProposalConfig(step_scale=0.02)
        mh = mh_run(poisson_model, poisson_example, proposal, example_center, 1500,
                    seed=11)
        pm = pmmh_run(poisson_model, poisson_example, cache, DifferenceConfig(m=10),
                      proposal, DependenceConfig(), example_center, 1500, seed=11)
        assert np.array_equal(mh.accept, pm.accept)
        assert np.array_equal(mh.draws, pm.draws)
        # one loop: the exact log-likelihood is recorded to the bit by both
        assert np.array_equal(mh.loglik_est, pm.loglik_est)
        assert np.array_equal(mh.sign, pm.sign)

    def test_trace_is_deterministic(self, poisson_model, poisson_example,
                                    example_center, param_caches):
        proposal = ProposalConfig(step_scale=0.02)
        runs = [pmmh_run(poisson_model, poisson_example, param_caches[1],
                         DifferenceConfig(m=50), proposal, DependenceConfig(),
                         example_center, 400, seed=12) for _ in range(2)]
        assert np.array_equal(runs[0].draws, runs[1].draws)
        assert np.array_equal(runs[0].loglik_est, runs[1].loglik_est)

    def test_signs_all_positive_for_difference_estimator(self, poisson_model,
                                                         poisson_example,
                                                         example_center, param_caches):
        proposal = ProposalConfig(step_scale=0.02)
        trace = pmmh_run(poisson_model, poisson_example, param_caches[2],
                         DifferenceConfig(m=30), proposal, DependenceConfig(),
                         example_center, 300, seed=13)
        assert np.all(trace.sign == 1)

    def test_records_the_bias_corrected_estimate_it_accepts_under(
            self, poisson_model, poisson_example, example_center, param_caches):
        # off the expansion point the order-1 differences vary, so the
        # sample variance is positive; a wide first proposal is rejected, so
        # row 0 holds the initial state's estimate
        from submcmc.samplers import initial_subsample
        m, seed = 30, 15
        theta0 = example_center + np.array([0.02, -0.02])
        trace = pmmh_run(poisson_model, poisson_example, param_caches[1],
                         DifferenceConfig(m=m), ProposalConfig(step_scale=1.0),
                         DependenceConfig(), theta0, 1, seed=seed)
        assert not trace.accept[0]
        state = initial_subsample(DifferenceConfig(m), DependenceConfig(), poisson_example.n,
                                  _streams(seed)[2])
        est = difference_estimate(poisson_model, param_caches[1], poisson_example, theta0,
                                  state)
        assert est.sample_variance > 0
        assert trace.loglik_est[0] == est.value - est.sample_variance / 2

    def test_cpm_dependence_runs_and_mixes(self, poisson_model, poisson_example,
                                           example_center, param_caches):
        proposal = ProposalConfig(step_scale=0.02)
        dep = DependenceConfig(kind="cpm", ar_coef=0.99)
        trace = pmmh_run(poisson_model, poisson_example, param_caches[1],
                         DifferenceConfig(m=40), proposal, dep, example_center, 1000,
                         seed=14)
        assert 0.05 < trace.accept.mean() < 0.9


class TestSignedPmmh:
    def test_bound_hits_auto_reject_and_are_counted(self):
        import itertools
        from submcmc import BlockPoissonConfig, Dataset
        from tests.test_estimators import TableCache, TableModel

        # d-hat over single-index batches is supported on {1.0, 0.4}; the
        # bound sits exactly on the first point, so any proposal whose
        # batches touch index 0 is invalid and must be auto-rejected
        q = np.array([0.0, 0.0])
        model = TableModel(q + np.array([0.5, 0.2]))
        cache = TableCache(q)
        ds = Dataset(y=np.zeros(2), X=np.zeros((2, 0)))
        cfg = BlockPoissonConfig(n_products=1, batch_size=1, bound=1.0)
        proposal = ProposalConfig(step_scale=0.1)
        trace = None
        for seed in itertools.count():
            try:
                trace = pmmh_run(model, ds, cache, cfg, proposal,
                                 DependenceConfig(), np.zeros(1), 300, seed=seed)
                break
            except SamplerError:
                continue  # initial subsample hit the bound; try the next seed
        assert trace.meta["invalid_proposals"] > 0
        assert np.all(np.isfinite(trace.loglik_est))
        assert set(np.unique(trace.sign)) <= {-1, 1}


class TestSignedExpectation:
    def test_all_positive_signs_reduce_to_plain_average(self):
        from submcmc import ChainTrace
        draws = np.arange(10.0)[:, None]
        trace = ChainTrace(draws=draws, accept=np.ones(10, bool),
                           loglik_est=np.zeros(10), sign=np.ones(10, np.int8),
                           u_accept=np.zeros(10, bool))
        assert signed_expectation(trace, lambda t: t[0]) == pytest.approx(4.5)

    def test_hand_computed_signed_table(self):
        from submcmc import ChainTrace
        draws = np.array([[1.0], [2.0], [3.0], [4.0]])
        signs = np.array([1, -1, 1, 1], np.int8)
        trace = ChainTrace(draws=draws, accept=np.ones(4, bool),
                           loglik_est=np.zeros(4), sign=signs,
                           u_accept=np.zeros(4, bool))
        # (1 - 2 + 3 + 4) / (1 - 1 + 1 + 1) = 6 / 2
        assert signed_expectation(trace, lambda t: t[0]) == pytest.approx(3.0)

    def test_nonpositive_sign_sum_rejected(self):
        from submcmc import ChainTrace
        trace = ChainTrace(draws=np.zeros((4, 1)), accept=np.ones(4, bool),
                           loglik_est=np.zeros(4),
                           sign=np.array([1, -1, -1, -1], np.int8),
                           u_accept=np.zeros(4, bool))
        with pytest.raises(SamplerError):
            signed_expectation(trace, lambda t: t[0])


# ---------------------------------------------------------------------------
# Hamiltonian Monte Carlo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quadratic_grad():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    return A, (lambda t: A @ t)


class TestLeapfrog:
    def test_reversibility(self, quadratic_grad):
        _, grad = quadratic_grad
        rng = np.random.default_rng(15)
        theta, mom = rng.normal(size=2), rng.normal(size=2)
        eye = np.eye(2)
        t1, m1 = leapfrog(grad, theta, mom, 0.1, 25, eye)
        t2, m2 = leapfrog(grad, t1, -m1, 0.1, 25, eye)
        np.testing.assert_allclose(t2, theta, atol=1e-10)
        np.testing.assert_allclose(m2, -mom, atol=1e-10)

    def test_volume_preserved_to_first_order(self, quadratic_grad):
        _, grad = quadratic_grad
        eye = np.eye(2)

        def step(z):
            t, m = leapfrog(grad, z[:2], z[2:], 0.05, 1, eye)
            return np.concatenate([t, m])

        z0 = np.array([0.3, -0.4, 0.7, 0.2])
        J = np.empty((4, 4))
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            J[:, j] = (step(z0 + e) - step(z0 - e)) / (2 * h)
        assert abs(np.linalg.det(J) - 1.0) < 1e-6

    def test_energy_error_scales_quadratically_in_step_size(self, poisson_model,
                                                            poisson_example,
                                                            example_center):
        small = Dataset(y=poisson_example.y[:50], X=poisson_example.X[:50])

        def potential(t):
            return -(poisson_model.loglik_sum(t, small) + poisson_model.log_prior(t))

        def grad(t):
            return -(np.sum(poisson_model.grad_theta(t, small), axis=0)
                     + poisson_model.grad_log_prior(t))

        eye = np.eye(2)
        rng = np.random.default_rng(16)
        errs = {0.02: [], 0.01: []}
        for _ in range(20):
            mom = rng.normal(size=2)
            for eps, steps in ((0.02, 32), (0.01, 64)):
                t1, m1 = leapfrog(grad, example_center, mom, eps, steps, eye)
                dH = (potential(t1) + 0.5 * m1 @ m1) - (potential(example_center)
                                                        + 0.5 * mom @ mom)
                errs[eps].append(abs(dH))
        ratio = np.mean(errs[0.02]) / np.mean(errs[0.01])
        assert 2.5 <= ratio <= 6.0


class TestHmc:
    def test_standard_normal_target_moments(self):
        model = FlatModel(GaussianPrior(mean=0.0, sd=1.0))
        ds = Dataset(y=np.zeros(1), X=np.empty((1, 0)))
        cfg = HmcConfig(step_size=0.5, n_steps=8)
        trace = hmc_run(model, ds, cfg, np.zeros(2), 30_000, seed=17)
        x = trace.draws[2000:]
        from submcmc import iact
        for j in range(2):
            tau = iact(x[:, j]).value
            se = math.sqrt(tau / x.shape[0])
            assert abs(x[:, j].mean()) < 4 * se
            assert x[:, j].var(ddof=1) == pytest.approx(1.0, rel=0.1)
        assert abs(np.corrcoef(x.T)[0, 1]) < 0.05

    def test_recovers_conjugate_posterior(self, normal_mean_setup):
        from submcmc import iact, mc_standard_error
        model, ds = normal_mean_setup
        exact_mean, exact_var = model.exact_posterior(ds)
        trace = hmc_run(model, ds, HmcConfig(step_size=0.05, n_steps=6),
                        np.array([0.0]), 20_000, seed=18)
        x = trace.draws[1000:, 0]
        # a tuned trajectory can be antithetic (IACT < 1); floor the MCSE at
        # the iid rate so the band never degenerates to zero
        tau = max(iact(x).value, 1.0)
        assert abs(x.mean() - exact_mean) < 4 * mc_standard_error(x, tau)
        assert x.var(ddof=1) == pytest.approx(exact_var, rel=0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergences_counted_not_fatal(self, poisson_model, poisson_example,
                                           example_center):
        cfg = HmcConfig(step_size=50.0, n_steps=5)
        trace = hmc_run(poisson_model, poisson_example, cfg, example_center, 50, seed=19)
        assert trace.meta["divergences"] > 0
        assert np.all(np.isfinite(trace.draws))

    def test_responses_validated_once_per_chain(self, monkeypatch, poisson_example,
                                                example_center):
        # the full-data gradient of every leapfrog step skips the check
        model = PoissonRegression()
        calls = []
        real = model.check_response

        def counting(y):
            calls.append(y.size)
            return real(y)

        monkeypatch.setattr(model, "check_response", counting)
        hmc_run(model, poisson_example, HmcConfig(step_size=0.006, n_steps=4),
                example_center, 20, seed=19)
        assert calls == [poisson_example.n]

    def test_deterministic(self, normal_mean_setup):
        model, ds = normal_mean_setup
        cfg = HmcConfig(step_size=0.05, n_steps=5)
        a = hmc_run(model, ds, cfg, np.array([0.1]), 300, seed=20)
        b = hmc_run(model, ds, cfg, np.array([0.1]), 300, seed=20)
        assert np.array_equal(a.draws, b.draws)

    def test_mass_matrix_validation(self):
        with pytest.raises(ConfigError):
            HmcConfig(step_size=0.1, n_steps=5, mass=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ConfigError):
            HmcConfig(step_size=-0.1, n_steps=5)
        with pytest.raises(ConfigError):
            HmcConfig(step_size=0.1, n_steps=0)

    @pytest.mark.parametrize("step_size", [math.nan, math.inf])
    def test_step_size_must_be_finite(self, step_size):
        # a NaN step size once made every trajectory diverge and raised nothing
        with pytest.raises(ConfigError) as err:
            HmcConfig(step_size=step_size, n_steps=5)
        assert err.value.field == "epsilon"


# ---------------------------------------------------------------------------
# Energy conserving subsampling
# ---------------------------------------------------------------------------


class TestHmcEcs:
    def test_exact_control_variates_reproduce_full_data_hmc(self, poisson_model,
                                                            poisson_example,
                                                            example_center):
        cache = ExactControlVariate(poisson_model, poisson_example)
        cfg = HmcConfig(step_size=0.02, n_steps=5)
        full = hmc_run(poisson_model, poisson_example, cfg, example_center, 400, seed=21)
        ecs = hmc_ecs_run(poisson_model, poisson_example, cache, cfg, 20,
                          example_center, 400, seed=21)
        # exact control variates make hmc_ecs full-data HMC in the shared
        # loop, so every trace column agrees
        for name in ("draws", "accept", "loglik_est", "sign"):
            np.testing.assert_array_equal(getattr(ecs, name), getattr(full, name), name)
        assert np.all(ecs.u_accept)

    def test_potential_gradient_matches_finite_differences(self, poisson_model,
                                                           poisson_example,
                                                           example_center,
                                                           param_caches):
        rng = np.random.default_rng(22)
        indices = rng.integers(0, poisson_example.n, size=60)
        theta = example_center + np.array([0.3, -0.25])
        cache = param_caches[2]

        def value(t):
            v, _, _ = subsampled_potential(poisson_model, cache, poisson_example, t,
                                           indices)
            return v

        _, grad, _ = subsampled_potential(poisson_model, cache, poisson_example,
                                          theta, indices)
        fd = np.array([fd4(value, theta, j) for j in range(2)])
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

    def test_variance_gradient_ablation_flag(self, poisson_model, poisson_example,
                                             example_center, param_caches):
        rng = np.random.default_rng(23)
        indices = rng.integers(0, poisson_example.n, size=60)
        theta = example_center + np.array([0.3, -0.25])
        cache = param_caches[2]
        n, m = poisson_example.n, 60

        def value_without_correction(t):
            est = difference_estimate(poisson_model, cache, poisson_example, t, indices)
            return -(est.value + poisson_model.log_prior(t))

        _, grad, _ = subsampled_potential(poisson_model, cache, poisson_example, theta,
                                          indices, include_variance_grad=False)
        fd = np.array([fd4(value_without_correction, theta, j) for j in range(2)])
        np.testing.assert_allclose(grad, fd, rtol=1e-6)
        assert n == poisson_example.n and m == 60

    def test_subsample_updates_recorded(self, poisson_model, poisson_example,
                                        example_center, param_caches):
        cfg = HmcConfig(step_size=0.01, n_steps=3)
        trace = hmc_ecs_run(poisson_model, poisson_example, param_caches[2], cfg, 40,
                            example_center, 200, seed=24)
        assert trace.u_accept.dtype == bool
        assert trace.u_accept.mean() > 0.2

    def test_recorded_loglik_is_at_the_recorded_draw(self, poisson_model, poisson_example,
                                                     example_center):
        # exact control variates make the estimate the full-data log-likelihood
        cache = ExactControlVariate(poisson_model, poisson_example)
        cfg = HmcConfig(step_size=0.005, n_steps=5)
        trace = hmc_ecs_run(poisson_model, poisson_example, cache, cfg, 50,
                            example_center, 200, seed=3)
        want = [poisson_model.loglik_sum(t, poisson_example) for t in trace.draws]
        np.testing.assert_allclose(trace.loglik_est, want, rtol=1e-9, atol=0)

    def test_potential_evaluations_per_iteration(self, monkeypatch, poisson_model,
                                                 poisson_example, example_center,
                                                 param_caches):
        from submcmc.control_variates import _Differences
        full, grad_only = [], []
        real_bind = _Differences.bind_potential

        def counting_bind(self, *args, **kwargs):
            potential_at = real_bind(self, *args, **kwargs)

            def counting_at(rows):
                evaluate, grad_potential = potential_at(rows)

                def counting_full(theta):
                    full.append(1)
                    return evaluate(theta)

                def counting_grad(theta):
                    grad_only.append(1)
                    return grad_potential(theta)
                return counting_full, counting_grad
            return counting_at

        monkeypatch.setattr(_Differences, "bind_potential", counting_bind)
        n_iter, n_steps = 10, 5
        hmc_ecs_run(poisson_model, poisson_example, param_caches[2],
                    HmcConfig(step_size=0.005, n_steps=n_steps), 50, example_center,
                    n_iter, seed=3)
        # the start-point check, then per iteration the proposed subsample's
        # full evaluation, n_steps - 1 gradient-only steps inside the
        # trajectory and a full evaluation at its end; the current point's
        # estimate and gradient carry over
        assert len(full) == 1 + 2 * n_iter
        assert len(grad_only) == n_iter * (n_steps - 1)
        assert len(full) + len(grad_only) == 1 + n_iter * (n_steps + 1)

    def test_potential_on_bare_indices_is_corrected_difference_estimate(
            self, poisson_model, poisson_example, example_center, param_caches):
        from submcmc.control_variates import gather_rows

        rng = np.random.default_rng(26)
        theta = example_center + np.array([0.02, -0.01])
        for order in (0, 1, 2):
            cache = param_caches[order]
            idx = rng.integers(0, poisson_example.n, size=40)
            est = difference_estimate(poisson_model, cache, poisson_example, theta, idx)
            U, grad, log_phat = subsampled_potential(poisson_model, cache, poisson_example,
                                                     theta, idx)
            want = est.value - est.sample_variance / 2.0
            assert log_phat == pytest.approx(want, rel=1e-10)
            assert U == -(log_phat + poisson_model.log_prior(theta))
            # gathered rows evaluate to the same bits as the bare indices
            rows = gather_rows(poisson_model, cache, poisson_example, idx)
            U2, grad2, log_phat2 = subsampled_potential(poisson_model, cache,
                                                        poisson_example, theta, rows)
            assert (U2, log_phat2) == (U, log_phat)
            np.testing.assert_array_equal(grad2, grad)

    def test_leapfrog_hands_back_its_end_point_evaluation(self, poisson_model,
                                                          poisson_example, example_center,
                                                          param_caches):
        idx = np.random.default_rng(27).integers(0, poisson_example.n, size=50)

        def evaluate(t):
            return subsampled_potential(poisson_model, param_caches[2], poisson_example,
                                        t, idx)

        mom = np.array([0.3, -0.2])
        eye = np.eye(2)
        t1, m1 = leapfrog(lambda t: evaluate(t)[1], example_center, mom, 0.01, 4, eye)
        t2, m2, (U, g, log_phat) = leapfrog(lambda t: evaluate(t)[1], example_center, mom,
                                            0.01, 4, eye, evaluate)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(m1, m2)
        U_end, g_end, log_phat_end = evaluate(t2)
        assert (U, log_phat) == (U_end, log_phat_end)
        np.testing.assert_array_equal(g, g_end)
        # a carried opening gradient gives the same trajectory
        t3, m3, _ = leapfrog(lambda t: evaluate(t)[1], example_center, mom, 0.01, 4, eye,
                             evaluate, grad0=evaluate(example_center)[1])
        np.testing.assert_array_equal(t3, t1)
        np.testing.assert_array_equal(m3, m1)

    def test_data_expanded_cache_rejected(self, poisson_model, poisson_example,
                                          example_center):
        from submcmc import build_data_expanded, kmeans_cluster
        clustering = kmeans_cluster(poisson_example, 10, seed=0)
        cache = build_data_expanded(poisson_model, poisson_example, clustering, order=2)
        cfg = HmcConfig(step_size=0.01, n_steps=2)
        with pytest.raises(NotImplementedError):
            hmc_ecs_run(poisson_model, poisson_example, cache, cfg, 20,
                        example_center, 5, seed=25)


class TestBenchmarkHookPoints:
    """Kernels mark each iteration with exactly one module-level
    `samplers.propose_u` call, and block-Poisson each estimate with one
    module-level `estimators.differences` call, which outside timing tools
    rely on."""

    @staticmethod
    def _count_propose_u(monkeypatch):
        from submcmc import samplers
        calls = []
        real = samplers.propose_u

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(samplers, "propose_u", counting)
        return calls

    def test_propose_u_once_per_pmmh_iteration(self, monkeypatch, poisson_model,
                                               poisson_example, example_center,
                                               param_caches):
        from submcmc import BlockPoissonConfig
        calls = self._count_propose_u(monkeypatch)
        proposal = ProposalConfig(step_scale=0.02)
        pmmh_run(poisson_model, poisson_example, param_caches[2], DifferenceConfig(m=30),
                 proposal, DependenceConfig(), example_center, 25, seed=28)
        assert len(calls) == 25
        cfg = BlockPoissonConfig(n_products=4, batch_size=5, bound=-4.0)
        pmmh_run(poisson_model, poisson_example, param_caches[2], cfg, proposal,
                 DependenceConfig(kind="bpm", n_blocks=2), example_center, 15, seed=29)
        assert len(calls) == 25 + 15

    @pytest.mark.parametrize("dependence", [DependenceConfig(),
                                            DependenceConfig(kind="bpm", n_blocks=2)],
                             ids=["independent", "bpm"])
    def test_one_differences_call_per_block_poisson_estimate(
            self, monkeypatch, poisson_model, poisson_example, example_center,
            param_caches, dependence):
        from submcmc import BlockPoissonConfig, estimators
        calls = []
        real = estimators.differences

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "differences", counting)
        cfg = BlockPoissonConfig(n_products=4, batch_size=5, bound=-4.0)
        pmmh_run(poisson_model, poisson_example, param_caches[2], cfg,
                 ProposalConfig(step_scale=0.02), dependence, example_center, 15, seed=29)
        assert len(calls) == 1 + 15

    def test_propose_u_once_per_hmc_ecs_iteration(self, monkeypatch, poisson_model,
                                                  poisson_example, example_center,
                                                  param_caches):
        calls = self._count_propose_u(monkeypatch)
        hmc_ecs_run(poisson_model, poisson_example, param_caches[2],
                    HmcConfig(step_size=0.005, n_steps=3), 40, example_center, 12, seed=30,
                    dependence=DependenceConfig(kind="bpm", n_blocks=4))
        assert len(calls) == 12


@pytest.mark.parametrize("kernel", ["mh", "pmmh", "hmc", "hmc_ecs"])
def test_trace_columns_mean_the_same_in_every_kernel(tmp_path, poisson_model,
                                                     poisson_example, example_center,
                                                     kernel):
    # loglik_est is the full-data log-likelihood at the recorded draw when
    # the control variates are exact, accept is a 0/1 flag, and sign is 1
    from submcmc.experiments import read_trace_csv, write_trace_csv
    cache = ExactControlVariate(poisson_model, poisson_example)
    proposal, hmc = ProposalConfig(step_scale=0.02), HmcConfig(step_size=0.02, n_steps=5)
    args = (poisson_model, poisson_example)
    trace = {
        "mh": lambda: mh_run(*args, proposal, example_center, 200, seed=31),
        "pmmh": lambda: pmmh_run(*args, cache, DifferenceConfig(m=20), proposal,
                                 DependenceConfig(), example_center, 200, seed=31),
        "hmc": lambda: hmc_run(*args, hmc, example_center, 200, seed=31),
        "hmc_ecs": lambda: hmc_ecs_run(*args, cache, hmc, 20, example_center, 200, seed=31),
    }[kernel]()
    write_trace_csv(trace, tmp_path / "trace.csv")
    back = read_trace_csv(tmp_path / "trace.csv")
    exact = np.array([poisson_model.loglik_sum(theta, poisson_example)
                      for theta in back.draws])
    np.testing.assert_array_equal(back.loglik_est, exact)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    at = lines[0].split(",").index("accept")
    assert {line.split(",")[at] for line in lines[1:]} == {"0", "1"}
    assert np.all(back.sign == 1)


@pytest.mark.parametrize("kernel", ["mh", "pmmh", "pmmh_block_poisson", "hmc", "hmc_ecs"])
def test_trace_meta_holds_what_the_chain_measured(poisson_model, poisson_example,
                                                  example_center, param_caches, kernel):
    # the shared loop records its wall time and its counter, the kernel its
    # cost per iteration; the config lives in the run's echo
    from submcmc import BlockPoissonConfig, make_ct_report
    n, cache = poisson_example.n, param_caches[2]
    proposal, hmc = ProposalConfig(step_scale=0.02), HmcConfig(step_size=0.02, n_steps=5)
    bp = BlockPoissonConfig(n_products=4, batch_size=5, bound=-4.0)
    args = (poisson_model, poisson_example)
    run, counter, cost = {
        "mh": (lambda: mh_run(*args, proposal, example_center, 150, seed=32),
               "invalid_proposals", n),
        "pmmh": (lambda: pmmh_run(*args, cache, DifferenceConfig(m=20), proposal,
                                  DependenceConfig(), example_center, 150, seed=32),
                 "invalid_proposals", 20),
        "pmmh_block_poisson": (lambda: pmmh_run(*args, cache, bp, proposal,
                                                DependenceConfig(kind="bpm", n_blocks=2),
                                                example_center, 150, seed=32),
                               "invalid_proposals", 4 * 5),
        "hmc": (lambda: hmc_run(*args, hmc, example_center, 150, seed=32),
                "divergences", n * 5),
        "hmc_ecs": (lambda: hmc_ecs_run(*args, cache, hmc, 20, example_center, 150, seed=32),
                    "divergences", 20 * 5),
    }[kernel]
    trace = run()
    assert set(trace.meta) == {"wall_time", "cost_proxy", counter}
    assert trace.meta["wall_time"] > 0 and trace.meta[counter] >= 0
    assert trace.meta["cost_proxy"] == cost
    assert make_ct_report(trace) == make_ct_report(trace, cost_proxy=cost)


def test_stream_split_is_stable():
    a = _streams(123)
    b = _streams(123)
    for ga, gb in zip(a, b):
        assert ga.random() == gb.random()


def test_accept_step_interface_takes_two_log_target_scalars():
    # the acceptance ratio sees the subsample states only through the two
    # log-target values; the interface enforces it
    import inspect
    from submcmc import log_accept_ratio

    params = list(inspect.signature(log_accept_ratio).parameters)
    assert params == ["log_target_prop", "log_target_cur", "log_q_correction"]
    assert log_accept_ratio(-10.0, -12.0, 0.5) == pytest.approx(2.5)
