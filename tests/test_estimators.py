import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submcmc import (
    BlockPoissonConfig,
    Dataset,
    DomainError,
    ExactControlVariate,
    PlanningInputs,
    SubsampleState,
    block_poisson_evaluate,
    build_param_expanded,
    default_soft_bound,
    difference_estimate,
    differences,
    draw_block_poisson,
    draw_bpm,
    draw_cpm,
    draw_srs,
    estimate_sigma2_pilot,
    gaussian_to_index,
    optimal_m_srs_wor,
    plan_subsample_size,
    srs_wr_estimate,
    wor_sampling_fraction,
)
from submcmc.models import ModelSpec


class TableModel(ModelSpec):
    """Log-likelihood contributions read straight from a table; the minimal
    surface the estimators need for exhaustive enumeration oracles."""

    def __init__(self, table):
        super().__init__()
        self.table = np.asarray(table, dtype=float)

    def loglik(self, theta, dataset, idx=None):
        return self.table if idx is None else self.table[np.asarray(idx)]

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


class TableCache:
    """Control-variate stub with tabulated q_i."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.n = self.q.size

    def values_at(self, theta, idx):
        return self.q[np.asarray(idx)]

    def sum_values(self, theta):
        return float(self.q.sum())


def table_dataset(n):
    return Dataset(y=np.zeros(n), X=np.zeros((n, 0)))


THETA = np.zeros(1)


# ---------------------------------------------------------------------------
# Plain with-replacement estimator
# ---------------------------------------------------------------------------


class TestSrsEstimate:
    def test_constant_population(self):
        model = TableModel([2.5] * 6)
        est = srs_wr_estimate(model, table_dataset(6), THETA, [0, 3, 3])
        assert est.value == pytest.approx(15.0, abs=1e-12)
        assert est.sample_variance == 0.0

    def test_exhaustive_enumeration_mean_and_variance(self):
        # population (1,2,3,4), m=2: all 16 equiprobable index pairs
        model = TableModel([1.0, 2.0, 3.0, 4.0])
        ds = table_dataset(4)
        values = [srs_wr_estimate(model, ds, THETA, list(pair)).value
                  for pair in itertools.product(range(4), repeat=2)]
        assert np.mean(values) == pytest.approx(10.0, abs=1e-12)
        # with-replacement variance (n^2/m) * population variance
        pop_var = np.mean((np.array([1.0, 2, 3, 4]) - 2.5) ** 2)
        assert np.var(values) == pytest.approx(16.0 / 2.0 * pop_var, abs=1e-12)
        assert np.var(values) == pytest.approx(10.0, abs=1e-12)

    def test_empty_index_set_rejected(self):
        with pytest.raises(DomainError):
            srs_wr_estimate(TableModel([1.0]), table_dataset(1), THETA, [])


class TestOptimalSubsampleSize:
    def test_large_population_example(self):
        # n=1e5, sigma2=0.01, target 3.3: 1e8/1003.3 ~ 99671.08
        assert 1e8 / 1003.3 == pytest.approx(99671.08, abs=0.01)
        assert optimal_m_srs_wor(100_000, 0.01, 3.3) == math.ceil(1e8 / 1003.3)
        assert wor_sampling_fraction(100_000, 0.01, 3.3) == pytest.approx(0.9967099, abs=1e-6)

    def test_moderate_population_example(self):
        # n=1000, sigma2=0.1: 1e5/103.3 ~ 968.05
        assert optimal_m_srs_wor(1000, 0.1, 3.3) == math.ceil(1e5 / 103.3)

    def test_vanishing_population_variance(self):
        assert optimal_m_srs_wor(1000, 0.0, 3.3) == 1
        assert optimal_m_srs_wor(1000, 1e-12, 3.3) == 1

    def test_capped_at_population_size(self):
        assert optimal_m_srs_wor(100, 100.0, 0.001) == 100

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 10**7), sigma2=st.floats(1e-8, 1e3))
    def test_fraction_increases_toward_one(self, n, sigma2):
        f1 = wor_sampling_fraction(n, sigma2, 3.3)
        f2 = wor_sampling_fraction(10 * n, sigma2, 3.3)
        assert 0.0 < f1 < f2 < 1.0


# ---------------------------------------------------------------------------
# Difference estimator
# ---------------------------------------------------------------------------


class TestDifferenceEstimate:
    def test_zero_variance_control_variates_are_exact(self, poisson_model,
                                                      poisson_example):
        cache = ExactControlVariate(poisson_model, poisson_example)
        theta = np.array([0.8, 0.6])
        exact = poisson_model.loglik_sum(theta, poisson_example)
        rng = np.random.default_rng(1)
        for m in (1, 7, 100):
            est = difference_estimate(poisson_model, cache, poisson_example, theta,
                                      draw_srs(poisson_example.n, m, rng))
            assert est.value == pytest.approx(exact, rel=1e-12)
            assert est.sample_variance == 0.0

    def test_exhaustive_enumeration_recovers_total(self):
        # q sums to 100, differences (1,2,3,4): expectation = 100 + 10
        q = np.array([30.0, 25.0, 25.0, 20.0])
        model = TableModel(q + np.array([1.0, 2.0, 3.0, 4.0]))
        cache = TableCache(q)
        ds = table_dataset(4)
        values = [difference_estimate(model, cache, ds, THETA, np.array(pair)).value
                  for pair in itertools.product(range(4), repeat=2)]
        assert np.mean(values) == pytest.approx(110.0, abs=1e-10)

    def test_monte_carlo_unbiasedness(self, poisson_model, poisson_example,
                                      example_center, param_caches):
        theta = example_center + np.array([0.05, 0.03])
        exact = poisson_model.loglik_sum(theta, poisson_example)
        rng = np.random.default_rng(2)
        cache = param_caches[1]
        reps = 5000
        values = np.array([
            difference_estimate(poisson_model, cache, poisson_example, theta,
                                draw_srs(poisson_example.n, 20, rng)).value
            for _ in range(reps)])
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) < 4 * se

    def test_deterministic_given_state(self, poisson_model, poisson_example,
                                       param_caches):
        state = draw_srs(poisson_example.n, 50, np.random.default_rng(3))
        theta = np.array([1.0, 0.7])
        a = difference_estimate(poisson_model, param_caches[2], poisson_example, theta, state)
        b = difference_estimate(poisson_model, param_caches[2], poisson_example, theta, state)
        assert a.value == b.value and a.sample_variance == b.sample_variance


class TestBiasCorrection:
    def test_lognormal_mean_identity_with_known_variance(self):
        # E[exp(L - sigma^2/2)] = exp(ell) when L ~ N(ell, sigma^2)
        rng = np.random.default_rng(4)
        draws = rng.normal(0.0, 1.0, size=1_000_000)
        mean = np.exp(draws - 0.5).mean()
        assert mean == pytest.approx(1.0, rel=0.01)

    def test_plug_in_variance_bias_is_small_at_m_100(self, poisson_model,
                                                     poisson_example, example_center,
                                                     param_caches):
        theta = example_center + np.array([0.02, 0.015])
        exact = poisson_model.loglik_sum(theta, poisson_example)
        rng = np.random.default_rng(5)
        cache = param_caches[1]
        reps = 4000
        ratios = np.empty(reps)
        for r in range(reps):
            est = difference_estimate(poisson_model, cache, poisson_example, theta,
                                      draw_srs(poisson_example.n, 100, rng))
            ratios[r] = math.exp(est.value - est.sample_variance / 2.0 - exact)
        assert abs(ratios.mean() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Block-Poisson product estimator
# ---------------------------------------------------------------------------


def _factor_from_single_batch(model, cache, ds, cfg, batch):
    """(dhat - a)/lambda recovered through the real evaluation path."""
    state = SubsampleState(n=ds.n, indices=np.asarray(batch),
                           bounds=np.array([0, len(batch)]), batch_size=len(batch))
    log_abs, sign = block_poisson_evaluate(model, cache, ds, THETA, cfg, state)
    return sign * math.exp(log_abs - cache.sum_values(THETA) - (cfg.bound + cfg.n_products))


def enumerate_block_poisson_mean(model, cache, ds, cfg, m_b, max_count=20):
    """Truncated-Poisson enumeration oracle for E[estimate]/Q.

    Mini-batches are iid, so each product's expectation is the Poisson(1)
    probability generating function evaluated at the exhaustive per-batch
    mean; counts are truncated at max_count (mass below 1e-15).
    """
    mu = np.mean([_factor_from_single_batch(model, cache, ds, cfg, batch)
                  for batch in itertools.product(range(ds.n), repeat=m_b)])
    pgf = math.fsum(math.exp(-1.0) / math.factorial(x) * mu**x
                    for x in range(max_count + 1))
    return (math.exp((cfg.bound + cfg.n_products) / cfg.n_products) * pgf) ** cfg.n_products


class TestBlockPoisson:
    def test_zero_variance_batches_at_optimal_bound(self):
        # constant differences c: every mini-batch estimate equals n*c, and
        # bound = n*c - lambda makes every factor exactly 1
        q = np.array([1.0, -2.0, 0.5])
        c = 0.4
        model = TableModel(q + c)
        cache = TableCache(q)
        ds = table_dataset(3)
        total_d = 3 * c
        cfg = BlockPoissonConfig(n_products=4, batch_size=2, bound=total_d - 4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            log_abs, sign = block_poisson_evaluate(
                model, cache, ds, THETA, cfg,
                draw_block_poisson(ds.n, cfg.n_products, cfg.batch_size, rng))
            assert sign == 1
            assert log_abs == pytest.approx(q.sum() + total_d, abs=1e-12)

    def test_all_empty_products(self):
        q = np.array([1.0, 2.0])
        model = TableModel(q)
        cache = TableCache(q)
        ds = table_dataset(2)
        cfg = BlockPoissonConfig(n_products=3, batch_size=1, bound=-1.5)
        state = SubsampleState(n=2, indices=np.empty(0, dtype=int),
                               bounds=np.zeros(4, dtype=int), batch_size=1)
        log_abs, sign = block_poisson_evaluate(model, cache, ds, THETA, cfg, state)
        assert sign == 1
        assert log_abs == pytest.approx(q.sum() + cfg.bound + 3, abs=1e-14)

    def test_bound_hit_exactly_gives_sign_zero(self):
        q = np.zeros(2)
        c = 0.7
        model = TableModel(q + c)
        cache = TableCache(q)
        ds = table_dataset(2)
        cfg = BlockPoissonConfig(n_products=1, batch_size=1, bound=2 * c)
        state = SubsampleState(n=2, indices=np.array([0]), bounds=np.array([0, 1]),
                               batch_size=1)
        log_abs, sign = block_poisson_evaluate(model, cache, ds, THETA, cfg, state)
        assert sign == 0 and log_abs == -np.inf

    def test_unbiased_for_two_point_batch_law(self):
        # n=2, m_b=1: dhat is supported on two points
        q = np.array([0.3, -0.1])
        d = np.array([0.2, -0.35])
        model = TableModel(q + d)
        cache = TableCache(q)
        ds = table_dataset(2)
        for lam, bound in ((1, -0.9), (3, -2.0)):
            cfg = BlockPoissonConfig(n_products=lam, batch_size=1, bound=bound)
            mean = enumerate_block_poisson_mean(model, cache, ds, cfg, m_b=1)
            assert mean == pytest.approx(math.exp(d.sum()), rel=1e-10)

    def test_unbiased_on_small_poisson_population(self, poisson_model, poisson_example,
                                                  example_center):
        small = Dataset(y=poisson_example.y[:5], X=poisson_example.X[:5])
        cache = build_param_expanded(poisson_model, small, example_center, order=1)
        theta = example_center + np.array([0.15, -0.1])
        d = differences(poisson_model, cache, small, theta, np.arange(5))
        cfg = BlockPoissonConfig(n_products=2, batch_size=2, bound=float(d.sum()) - 2.0)
        state0 = SubsampleState(n=5, indices=np.array([0, 0]), bounds=np.array([0, 2]),
                                batch_size=2)

        def factor(batch):
            st_ = SubsampleState(n=5, indices=np.asarray(batch), bounds=np.array([0, 2]),
                                 batch_size=2)
            log_abs, sign = block_poisson_evaluate(poisson_model, cache, small, theta,
                                                   cfg, st_)
            return sign * math.exp(log_abs - cache.sum_values(theta)
                                   - (cfg.bound + cfg.n_products))

        mu = np.mean([factor(b) for b in itertools.product(range(5), repeat=2)])
        pgf = math.fsum(math.exp(-1.0) / math.factorial(x) * mu**x for x in range(21))
        mean = (math.exp((cfg.bound + cfg.n_products) / cfg.n_products) * pgf) ** 2
        assert mean == pytest.approx(math.exp(float(d.sum())), rel=1e-10)
        assert state0 is not None

    def test_variance_invariant_to_product_grouping(self):
        # 4 products x Pois(1) batches vs one product holding Pois(4) batches:
        # same total-batch law, same assembled value, so equal variance
        rng_d = np.random.default_rng(7)
        q = np.zeros(10)
        d = rng_d.normal(0.0, 0.01, size=10)
        model = TableModel(q + d)
        cache = TableCache(q)
        ds = table_dataset(10)
        lam = 4
        cfg = BlockPoissonConfig(n_products=lam, batch_size=3,
                                 bound=float(10 * d.mean()) - lam)
        reps = 30_000
        rng = np.random.default_rng(8)
        standard = np.empty(reps)
        for r in range(reps):
            log_abs, sign = block_poisson_evaluate(
                model, cache, ds, THETA, cfg,
                draw_block_poisson(ds.n, cfg.n_products, cfg.batch_size, rng))
            standard[r] = sign * math.exp(log_abs - cache.sum_values(THETA))
        grouped = np.empty(reps)
        for r in range(reps):
            count = rng.poisson(lam)
            batches = [rng.integers(0, 10, size=3) for _ in range(count)]
            state = SubsampleState(n=10, indices=np.concatenate([np.empty(0, int), *batches]),
                                   bounds=np.array([0] + [3 * count] * 4), batch_size=3)
            log_abs, sign = block_poisson_evaluate(model, cache, ds, THETA, cfg, state)
            grouped[r] = sign * math.exp(log_abs - cache.sum_values(THETA))
        ratio = standard.var(ddof=1) / grouped.var(ddof=1)
        assert 0.8 <= ratio <= 1.25

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_flat_state_equals_the_nested_product(self, data):
        n = data.draw(st.integers(1, 6))
        b = data.draw(st.integers(1, 3))
        batch = st.lists(st.integers(0, n - 1), min_size=b, max_size=b)
        nested = data.draw(st.lists(st.lists(batch, max_size=3), min_size=1, max_size=5))
        values = st.floats(-3.0, 3.0, allow_nan=False)
        q = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        ell = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        lam = len(nested)
        cfg = BlockPoissonConfig(n_products=lam, batch_size=b, bound=data.draw(values))
        # the product over products of the product over their mini-batches
        log_abs, sign = q.sum() + cfg.bound + lam, 1
        for product in nested:
            for idx in product:
                factor = (n / b * float(np.sum(ell[idx] - q[idx])) - cfg.bound) / lam
                sign *= int(np.sign(factor))
                log_abs += math.log(abs(factor)) if factor != 0.0 else -math.inf
        flat = SubsampleState(n=n, indices=np.array([i for p in nested for k in p for i in k],
                                                    dtype=int),
                              bounds=np.cumsum([0] + [b * len(p) for p in nested]),
                              batch_size=b)
        got = block_poisson_evaluate(TableModel(ell), TableCache(q), table_dataset(n), THETA,
                                     cfg, flat)
        if sign == 0:
            assert got == (-np.inf, 0)
        else:
            assert got[1] == sign
            assert got[0] == pytest.approx(log_abs, rel=1e-12, abs=1e-12)

    def test_state_must_hold_the_configured_mini_batches(self):
        rng = np.random.default_rng(13)
        cfg = BlockPoissonConfig(n_products=2, batch_size=3, bound=-2.0)
        for state in (draw_srs(5, 6, rng), draw_block_poisson(5, 2, 2, rng)):
            with pytest.raises(DomainError):
                block_poisson_evaluate(TableModel(np.zeros(5)), TableCache(np.zeros(5)),
                                       table_dataset(5), THETA, cfg, state)

    def test_default_soft_bound_uses_pilot_estimate(self, poisson_model, poisson_example,
                                                    example_center, param_caches):
        rng = np.random.default_rng(9)
        bound = default_soft_bound(poisson_model, param_caches[2], poisson_example,
                                   example_center, 5, 200, rng)
        # at the expansion point all differences vanish, so bound ~ -lambda
        assert bound == pytest.approx(-5.0, abs=1e-9)

    def test_one_differences_call_per_estimate(self, monkeypatch, poisson_model,
                                               poisson_example, example_center,
                                               param_caches):
        # one call over the whole flat state evaluates each mini-batch once
        from submcmc import estimators
        calls = []
        real = estimators.differences

        def counting(*args, **kwargs):
            calls.append(np.array(args[4], copy=True))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "differences", counting)
        cache, theta = param_caches[2], example_center + 0.01
        cfg = BlockPoissonConfig(n_products=6, batch_size=8, bound=-6.0)
        state = draw_block_poisson(poisson_example.n, 6, 8, np.random.default_rng(12))
        assert state.m > 8
        block_poisson_evaluate(poisson_model, cache, poisson_example, theta, cfg, state)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], state.indices)
        # an all-empty state still makes its one (empty) call
        calls.clear()
        empty = SubsampleState(n=poisson_example.n, indices=np.empty(0, dtype=np.int64),
                               bounds=np.zeros(7, dtype=int), batch_size=8)
        got = block_poisson_evaluate(poisson_model, cache, poisson_example, theta, cfg, empty)
        assert len(calls) == 1 and calls[0].size == 0
        assert got == (cache.sum_values(theta) + cfg.bound + 6, 1)

    def test_one_bind_per_estimate(self, monkeypatch, poisson_model, poisson_example,
                                   example_center, param_caches):
        # the one `differences` call binds, range-checks and gathers the state
        from submcmc import control_variates, estimators
        calls = []
        real = control_variates.bind_differences

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(control_variates, "bind_differences", counting)
        monkeypatch.setattr(estimators, "bind_differences", counting)
        cfg = BlockPoissonConfig(n_products=6, batch_size=8, bound=-6.0)
        state = draw_block_poisson(poisson_example.n, 6, 8, np.random.default_rng(12))
        block_poisson_evaluate(poisson_model, param_caches[2], poisson_example,
                               example_center + 0.01, cfg, state)
        assert len(calls) == 1

    def test_deterministic_given_state(self, poisson_model, poisson_example,
                                       example_center, param_caches):
        state = draw_block_poisson(poisson_example.n, 3, 10, np.random.default_rng(11))
        cfg = BlockPoissonConfig(n_products=3, batch_size=10, bound=-3.0)
        theta = example_center + 0.05
        a = block_poisson_evaluate(poisson_model, param_caches[2], poisson_example,
                                   theta, cfg, state)
        b = block_poisson_evaluate(poisson_model, param_caches[2], poisson_example,
                                   theta, cfg, state)
        assert a == b


def per_minibatch_evaluate(model, cache, dataset, theta, cfg, state):
    """The product estimator as one `differences` call per mini-batch: the
    reference that the one-call evaluation must match to the bit."""
    n = dataset.n
    lam = cfg.n_products
    log_abs = cache.sum_values(theta) + cfg.bound + lam
    sign = 1
    for batch in state.indices.reshape(-1, state.batch_size):
        d = differences(model, cache, dataset, theta, batch)
        dhat = n / cfg.batch_size * float(np.sum(d))
        factor = (dhat - cfg.bound) / lam
        if factor == 0.0:
            return -np.inf, 0
        if factor < 0.0:
            sign = -sign
        log_abs += np.log(abs(factor))
    return float(log_abs), sign


class TestBlockPoissonBitExact:
    """Evaluating all mini-batches in one call leaves (log_abs, sign) bit for
    bit as the per-mini-batch loop had them, so traces stay byte-identical."""

    @pytest.fixture(scope="class")
    def caches(self, poisson_model, poisson_example, param_caches):
        from submcmc import build_data_expanded, kmeans_cluster
        clustering = kmeans_cluster(poisson_example, 10, seed=0)
        data_expanded = build_data_expanded(poisson_model, poisson_example, clustering,
                                            order=2)
        return [param_caches[0], param_caches[1], param_caches[2], data_expanded]

    def test_drawn_states(self, poisson_model, poisson_example, example_center, caches):
        rng = np.random.default_rng(40)
        for cache in caches:
            for lam, b in ((1, 1), (5, 7), (12, 30), (50, 8)):
                cfg = BlockPoissonConfig(n_products=lam, batch_size=b, bound=-float(lam))
                for _ in range(5):
                    theta = example_center + rng.normal(0.0, 0.03, size=2)
                    state = draw_block_poisson(poisson_example.n, lam, b, rng)
                    args = (poisson_model, cache, poisson_example, theta, cfg, state)
                    assert block_poisson_evaluate(*args) == per_minibatch_evaluate(*args)

    def test_bound_hit_exactly(self, poisson_model, poisson_example, example_center, caches):
        rng = np.random.default_rng(41)
        theta = example_center + np.array([0.04, -0.02])
        for cache in caches:
            state = draw_block_poisson(poisson_example.n, 8, 6, rng)
            assert state.m >= 12
            # the bound equal to the second mini-batch's own estimate
            batch = state.indices[6:12]
            bound = poisson_example.n / 6 * float(np.sum(differences(
                poisson_model, cache, poisson_example, theta, batch)))
            cfg = BlockPoissonConfig(n_products=8, batch_size=6, bound=bound)
            args = (poisson_model, cache, poisson_example, theta, cfg, state)
            assert per_minibatch_evaluate(*args) == (-np.inf, 0)
            assert block_poisson_evaluate(*args) == (-np.inf, 0)

    def test_several_negative_factors(self, poisson_model, poisson_example,
                                      example_center, caches):
        rng = np.random.default_rng(42)
        theta = example_center + np.array([0.05, -0.03])
        signs = set()
        for cache in caches:
            for _ in range(4):
                state = draw_block_poisson(poisson_example.n, 10, 5, rng)
                batches = state.indices.reshape(-1, 5)
                dhats = np.array([poisson_example.n / 5 * float(np.sum(differences(
                    poisson_model, cache, poisson_example, theta, k))) for k in batches])
                # a bound between the estimates puts several factors below it
                bound = float(np.median(dhats)) + 1e-3
                assert np.count_nonzero(dhats < bound) >= 2
                cfg = BlockPoissonConfig(n_products=10, batch_size=5, bound=bound)
                args = (poisson_model, cache, poisson_example, theta, cfg, state)
                got = block_poisson_evaluate(*args)
                assert got == per_minibatch_evaluate(*args)
                signs.add(got[1])
        assert signs == {-1, 1}


# ---------------------------------------------------------------------------
# Subsample-state constructors
# ---------------------------------------------------------------------------


class TestStateConstruction:
    def test_srs_indices_in_range(self):
        state = draw_srs(17, 40, np.random.default_rng(0))
        assert state.m == 40
        assert state.indices.min() >= 0 and state.indices.max() < 17

    def test_cpm_gaussian_coding_roundtrip(self):
        state = draw_cpm(100, 1000, np.random.default_rng(1))
        np.testing.assert_array_equal(state.indices,
                                      gaussian_to_index(state.gaussians, 100))

    def test_gaussian_map_clamps_extremes(self):
        assert gaussian_to_index(np.array([40.0]), 10)[0] == 9
        assert gaussian_to_index(np.array([-40.0]), 10)[0] == 0

    def test_bpm_blocks_partition_slots(self):
        state = draw_bpm(50, 10, 3, np.random.default_rng(2))
        assert state.bounds[0] == 0 and state.bounds[-1] == 10
        sizes = np.diff(state.bounds)
        assert sizes.sum() == 10 and sizes.max() - sizes.min() <= 1

    def test_block_poisson_batch_shapes(self):
        state = draw_block_poisson(30, 6, 4, np.random.default_rng(3))
        assert state.bounds.size == 7 and state.batch_size == 4
        assert np.all(np.diff(state.bounds) % 4 == 0)
        for batch in state.indices.reshape(-1, 4):
            assert batch.shape == (4,)
            assert batch.min() >= 0 and batch.max() < 30

    def test_constructor_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            draw_srs(10, 0, rng)
        with pytest.raises(DomainError):
            draw_bpm(10, 5, 6, rng)
        with pytest.raises(DomainError):
            draw_block_poisson(10, 0, 3, rng)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_block_poisson_bound_must_be_finite(self, bound):
        with pytest.raises(DomainError, match="finite"):
            BlockPoissonConfig(n_products=2, batch_size=5, bound=bound)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_degenerate_pilot_variance(self):
        m, flag = plan_subsample_size(PlanningInputs(n=1000, sigma2_pop=0.0, target=1.0))
        assert (m, flag) == (1, True)

    def test_doubling_target_halves_m(self):
        m1, _ = plan_subsample_size(PlanningInputs(n=1000, sigma2_pop=1e-3, target=1.0))
        m2, _ = plan_subsample_size(PlanningInputs(n=1000, sigma2_pop=1e-3, target=2.0))
        assert m2 == math.ceil(m1 / 2)

    def test_pilot_size_validated(self, poisson_model, poisson_example, param_caches,
                                  example_center):
        with pytest.raises(DomainError):
            estimate_sigma2_pilot(poisson_model, param_caches[1], poisson_example,
                                  example_center, 29, np.random.default_rng(0))

    def test_planned_size_hits_target_variance(self, poisson_model, poisson_example,
                                               example_center, param_caches):
        # zeroth-order differences carry enough spread for the target to be
        # reachable with a non-trivial subsample size
        theta = example_center + np.array([0.02, -0.01])
        cache = param_caches[0]
        rng = np.random.default_rng(10)
        sigma2 = estimate_sigma2_pilot(poisson_model, cache, poisson_example, theta,
                                       500, rng)
        target = 3.3
        m, _ = plan_subsample_size(PlanningInputs(poisson_example.n, sigma2, target))
        reps = 8000
        values = np.array([
            difference_estimate(poisson_model, cache, poisson_example, theta,
                                draw_srs(poisson_example.n, m, rng)).value
            for _ in range(reps)])
        measured = values.var(ddof=1)
        assert 0.5 * target <= measured <= 2.0 * target
