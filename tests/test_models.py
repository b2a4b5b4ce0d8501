import math
import pickle
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from submcmc import (
    CacheBuildError,
    CsvParseError,
    Dataset,
    DomainError,
    GaussianPrior,
    LogisticRegression,
    NormalMeanModel,
    PoissonRegression,
    build_param_expanded,
    load_dataset,
    save_dataset,
    simulate_poisson,
)
from submcmc import models

# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, h=1e-5):
    """Rows: components of f; columns: partials."""
    f0 = np.asarray(f(x))
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# Poisson regression
# ---------------------------------------------------------------------------


class TestPoissonLoglik:
    def test_all_zero_case(self):
        ds = Dataset(y=np.array([0.0]), X=np.array([[0.0]]))
        model = PoissonRegression()
        assert model.loglik([0.0, 0.0], ds, [0])[0] == pytest.approx(-1.0, abs=1e-15)

    def test_rate_one_any_covariate(self):
        ds = Dataset(y=np.array([1.0]), X=np.array([[3.7]]))
        model = PoissonRegression()
        # theta = 0 makes the rate 1 regardless of x: 1*0 - 1 - log(1!) = -1
        assert model.loglik([0.0, 0.0], ds, [0])[0] == pytest.approx(-1.0, abs=1e-15)

    def test_high_precision_value(self):
        # scalar-math oracle for theta=(1, 0.75), x=1, y=2
        expected = 2 * 1.75 - math.exp(1.75) - math.lgamma(3.0)
        assert expected == pytest.approx(-2.947749856565676, abs=1e-14)
        ds = Dataset(y=np.array([2.0]), X=np.array([[1.0]]))
        model = PoissonRegression()
        assert model.loglik([1.0, 0.75], ds, [0])[0] == pytest.approx(expected, abs=1e-13)

    def test_count_validation(self):
        model = PoissonRegression()
        with pytest.raises(DomainError):
            model.loglik([0.0, 0.0], Dataset(y=np.array([-1.0]), X=np.zeros((1, 1))), [0])
        with pytest.raises(DomainError):
            model.loglik([0.0, 0.0], Dataset(y=np.array([1.5]), X=np.zeros((1, 1))), [0])

    def test_sum_matches_compensated_sum_at_1e5(self):
        ds = simulate_poisson(100_000, (1.0, 0.75), seed=5)
        model = PoissonRegression()
        theta = np.array([0.9, 0.8])
        total = model.loglik_sum(theta, ds)
        oracle = math.fsum(model.loglik(theta, ds))
        assert total == pytest.approx(oracle, rel=1e-9)


class TestBoundEvaluation:
    """The bound forms the samplers call per iteration keep the bits of the
    public methods."""

    @pytest.mark.parametrize("model_cls", [PoissonRegression, LogisticRegression,
                                           NormalMeanModel])
    def test_bound_grad_sum(self, model_cls):
        ds = simulate_poisson(2_000, (1.0, 0.75), seed=9)
        if model_cls is LogisticRegression:
            ds = Dataset(y=(ds.y > 2).astype(float), X=ds.X)
        model = model_cls()
        loglik_sum, grad_sum = model.bind_sums(ds)
        for theta in (np.array([0.9, 0.8]), np.array([-0.3, 1.2])):
            theta = theta[:model.dim(ds)]
            assert loglik_sum(theta) == model.loglik_sum(theta, ds)
            want = np.sum(model.grad_theta(theta, ds), axis=0)
            got = grad_sum(theta)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_bound_loglik_sum_validates_responses_up_front(self):
        ds = Dataset(y=np.array([1.0, 2.5]), X=np.zeros((2, 1)))
        with pytest.raises(DomainError):
            PoissonRegression().bind_sums(ds)
        with pytest.raises(DomainError):
            LogisticRegression().bind_sums(ds)

    def test_bound_prior(self):
        prior = GaussianPrior(mean=0.3, sd=2.5)
        logpdf, grad = prior.bind()
        log_norm = np.log(2.5 * np.sqrt(2.0 * np.pi))
        for theta in (np.array([0.1, -0.4, 2.0]), np.array([7.0])):
            z = theta - 0.3
            assert logpdf(theta) == -0.5 / 2.5**2 * float(z.dot(z)) - z.size * float(log_norm)
            # the summed form it replaced, to within its rounding
            scaled = z / 2.5
            assert logpdf(theta) == pytest.approx(
                float(-0.5 * (scaled * scaled).sum() - z.size * log_norm), rel=1e-14)
            assert logpdf(theta) == prior.logpdf(list(theta))
            np.testing.assert_array_equal(grad(theta), -(theta - 0.3) / 2.5**2)
            np.testing.assert_array_equal(grad(theta), prior.grad(list(theta)))


class TestPoissonDerivatives:
    def test_zero_gradient_case(self):
        ds = Dataset(y=np.array([1.0]), X=np.array([[0.0]]))
        model = PoissonRegression()
        g = model.grad_theta([0.0, 0.0], ds, [0])[0]
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-15)

    def test_hand_evaluated_gradient_hessian(self):
        ds = Dataset(y=np.array([3.0]), X=np.array([[1.0]]))
        model = PoissonRegression()
        g = model.grad_theta([0.0, 0.0], ds, [0])[0]
        H = model.hess_theta([0.0, 0.0], ds, [0])[0]
        np.testing.assert_allclose(g, [2.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(H, [[-1.0, -1.0], [-1.0, -1.0]], atol=1e-15)

    def test_gradient_matches_finite_differences(self, poisson_model, poisson_example):
        rng = np.random.default_rng(11)
        for _ in range(100):
            i = int(rng.integers(poisson_example.n))
            theta = rng.normal(scale=0.8, size=2)
            g = poisson_model.grad_theta(theta, poisson_example, [i])[0]
            fd = fd_gradient(lambda t: poisson_model.loglik(t, poisson_example, [i])[0], theta)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_gradient_differences(self, poisson_model, poisson_example):
        rng = np.random.default_rng(12)
        for _ in range(20):
            i = int(rng.integers(poisson_example.n))
            theta = rng.normal(scale=0.8, size=2)
            H = poisson_model.hess_theta(theta, poisson_example, [i])[0]
            fd = fd_jacobian(lambda t: poisson_model.grad_theta(t, poisson_example, [i])[0],
                             theta)
            np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)


class TestPoissonDataDerivatives:
    def test_polygamma_identities_at_integer_counts(self):
        # for y = 0: psi0(1) = -gamma, psi1(1) = pi^2/6
        model = PoissonRegression()
        theta = np.array([0.3, -0.2])
        z = np.array([[0.0, 1.0]])
        g = model.grad_data(theta, z)[0]
        H = model.hess_data(theta, z)[0]
        mu = 0.3 - 0.2
        gamma = 0.5772156649015329
        assert g[0] == pytest.approx(mu + gamma, abs=1e-12)
        assert H[0, 0] == pytest.approx(-math.pi**2 / 6.0, abs=1e-12)
        # harmonic series oracle for larger counts
        for y in (1, 2, 7, 30):
            g = model.grad_data(theta, np.array([[float(y), 1.0]]))[0]
            psi0 = -gamma + math.fsum(1.0 / k for k in range(1, y + 1))
            assert g[0] == pytest.approx(mu - psi0, abs=1e-12)

    def test_trigamma_harmonic_identity_at_integer_counts(self):
        # psi1(y + 1) = pi^2/6 - sum_{k=1}^{y} 1/k^2
        model = PoissonRegression()
        theta = np.array([0.3, -0.2])
        for y in (1, 2, 7, 30):
            H = model.hess_data(theta, np.array([[float(y), 1.0]]))[0]
            psi1 = math.pi**2 / 6.0 - math.fsum(1.0 / k**2 for k in range(1, y + 1))
            assert H[0, 0] == pytest.approx(-psi1, abs=1e-12)

    def test_log_factorial_needs_counts_above_minus_one(self):
        model = PoissonRegression()
        with pytest.raises(DomainError):
            model.loglik_at(np.array([0.3, -0.2]), np.array([[-1.5, 1.0]]))

    def test_zero_slope_kills_covariate_block(self):
        model = PoissonRegression()
        g = model.grad_data(np.array([0.7, 0.0]), np.array([[4.0, 2.5]]))[0]
        assert g[1] == 0.0

    def test_hessian_symmetric_at_random_points(self):
        model = PoissonRegression()
        rng = np.random.default_rng(3)
        for _ in range(25):
            theta = rng.normal(size=3)
            z = np.concatenate([[rng.integers(0, 10)], rng.normal(size=2)]).astype(float)
            H = model.hess_data(theta, z[None])[0]
            np.testing.assert_allclose(H, H.T, atol=0)

    def test_matches_finite_differences_in_data_space(self):
        model = PoissonRegression()
        rng = np.random.default_rng(4)
        for _ in range(25):
            theta = rng.normal(size=2)
            z = np.array([float(rng.integers(1, 8)), rng.normal()])
            g = model.grad_data(theta, z[None])[0]
            fd = fd_gradient(lambda zz: model.loglik_at(theta, zz[None])[0], z)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)
            H = model.hess_data(theta, z[None])[0]
            fdH = fd_jacobian(lambda zz: model.grad_data(theta, zz[None])[0], z)
            np.testing.assert_allclose(H, fdH, rtol=1e-5, atol=1e-6)

    def test_domain_error_below_minus_one(self):
        model = PoissonRegression()
        with pytest.raises(DomainError):
            model.grad_data(np.array([0.0, 0.0]), np.array([[-1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Logistic regression and normal-mean model
# ---------------------------------------------------------------------------


class TestLogistic:
    def test_zero_parameter_gives_log_half(self):
        ds = Dataset(y=np.array([0.0, 1.0, 1.0]), X=np.random.default_rng(0).normal(size=(3, 2)))
        model = LogisticRegression()
        np.testing.assert_allclose(model.loglik(np.zeros(3), ds), -math.log(2.0), rtol=1e-15)

    def test_response_validation(self):
        model = LogisticRegression()
        with pytest.raises(DomainError):
            model.loglik(np.zeros(2), Dataset(y=np.array([2.0]), X=np.zeros((1, 1))), [0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        ds = Dataset(y=(rng.random(50) < 0.5).astype(float), X=rng.normal(size=(50, 2)))
        model = LogisticRegression()
        for _ in range(100):
            i = int(rng.integers(50))
            theta = rng.normal(size=3)
            g = model.grad_theta(theta, ds, [i])[0]
            fd = fd_gradient(lambda t: model.loglik(t, ds, [i])[0], theta)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(22)
        ds = Dataset(y=(rng.random(20) < 0.5).astype(float), X=rng.normal(size=(20, 1)))
        model = LogisticRegression()
        for _ in range(20):
            i = int(rng.integers(20))
            theta = rng.normal(size=2)
            H = model.hess_theta(theta, ds, [i])[0]
            fd = fd_jacobian(lambda t: model.grad_theta(t, ds, [i])[0], theta)
            np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    def test_data_space_derivatives_match_finite_differences(self):
        model = LogisticRegression()
        rng = np.random.default_rng(23)
        for _ in range(20):
            theta = rng.normal(size=3)
            z = np.concatenate([[float(rng.integers(0, 2))], rng.normal(size=2)])
            g = model.grad_data(theta, z[None])[0]
            fd = fd_gradient(lambda zz: model.loglik_at(theta, zz[None])[0], z)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)
            H = model.hess_data(theta, z[None])[0]
            fdH = fd_jacobian(lambda zz: model.grad_data(theta, zz[None])[0], z)
            np.testing.assert_allclose(H, fdH, rtol=1e-5, atol=1e-6)


class TestNormalMean:
    def test_data_space_derivatives_match_finite_differences(self):
        # only y counts: the covariate entries of the gradient and Hessian are 0
        model = NormalMeanModel()
        rng = np.random.default_rng(24)
        for _ in range(20):
            theta = rng.normal(size=1)
            z = rng.normal(scale=2.0, size=3)
            g = model.grad_data(theta, z[None])[0]
            fd = fd_gradient(lambda zz: model.loglik_at(theta, zz[None])[0], z)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)
            H = model.hess_data(theta, z[None])[0]
            fdH = fd_jacobian(lambda zz: model.grad_data(theta, zz[None])[0], z)
            np.testing.assert_allclose(H, fdH, rtol=1e-5, atol=1e-6)
            assert H[0, 0] == -1.0 and not g[1:].any() and not H[1:].any()

    def test_exact_posterior_formula(self):
        rng = np.random.default_rng(9)
        y = rng.normal(0.4, 1.0, size=50)
        ds = Dataset(y=y, X=np.empty((50, 0)))
        model = NormalMeanModel(mu0=1.0, tau0=2.0)
        mean, var = model.exact_posterior(ds)
        prec = 1.0 / 4.0 + 50
        assert mean == pytest.approx((1.0 / 4.0 + y.sum()) / prec, rel=1e-14)
        assert var == pytest.approx(1.0 / prec, rel=1e-14)

    def test_exact_posterior_against_quadrature(self):
        # independent oracle: normalize prior x likelihood on a dense grid
        rng = np.random.default_rng(10)
        y = rng.normal(-0.2, 1.0, size=30)
        ds = Dataset(y=y, X=np.empty((30, 0)))
        model = NormalMeanModel(mu0=0.5, tau0=1.5)
        mean, var = model.exact_posterior(ds)
        grid = np.linspace(mean - 8 * math.sqrt(var), mean + 8 * math.sqrt(var), 20001)
        logpost = np.array([model.loglik_sum(np.array([t]), ds)
                            + model.log_prior(np.array([t])) for t in grid])
        w = np.exp(logpost - logpost.max())
        w /= np.trapezoid(w, grid)
        q_mean = np.trapezoid(w * grid, grid)
        q_var = np.trapezoid(w * (grid - q_mean) ** 2, grid)
        assert mean == pytest.approx(q_mean, abs=1e-8)
        assert var == pytest.approx(q_var, rel=1e-6)


# ---------------------------------------------------------------------------
# The set-up pass: taylor_sums and log y!
# ---------------------------------------------------------------------------


def hstack_taylor_sums(model, theta, dataset, block):
    """taylor_sums as it was before its terms went into one reused buffer:
    a fresh np.hstack of the terms per block.  The reference whose bits the
    buffered pass keeps."""
    theta = np.asarray(theta, dtype=float)
    model.check_response(dataset.y)
    d = theta.size
    eta = np.empty(dataset.n)
    sum_ell = 0.0
    moments = np.zeros((d, 1 + d))
    for lo in range(0, dataset.n, block):
        rows = slice(lo, lo + block)
        y, W = dataset.y[rows], model.design(dataset, rows)
        e = eta[rows] = W @ theta
        cols = np.hstack([model.ell(y, e)[:, None], model.ell_d1(y, e)[:, None],
                          model.ell_d2(y, e)[:, None] * W])
        sum_ell += float(np.sum(cols[:, 0]))
        moments += W.T @ cols[:, 1:]
    return eta, sum_ell, moments[:, 0], moments[:, 1:]


def setup_case(model_cls, n, seed=11):
    """A dataset with two covariates for `model_cls`, and a point near its mode."""
    ds = simulate_poisson(n, np.array([1.0, 0.5, -0.3]), seed=seed)
    if model_cls is LogisticRegression:
        ds = Dataset(y=(ds.y > 2).astype(float), X=ds.X)
    model = model_cls()
    theta = np.array([0.9, 0.45, -0.25])[:model.dim(ds)]
    return model, ds, theta


class TestSetupPass:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("model_cls", [PoissonRegression, LogisticRegression,
                                           NormalMeanModel])
    @pytest.mark.parametrize("block, n", [(64, 3 * 64 + 17), (64, 64), (1 << 16, 300)],
                             ids=["full-and-partial-blocks", "one-full-block", "one-short"])
    @pytest.mark.parametrize("layout", ["arrays", "rows"])
    def test_buffered_pass_keeps_the_hstack_bits(self, monkeypatch, model_cls, order,
                                                 block, n, layout):
        model, ds, theta = setup_case(model_cls, n)
        monkeypatch.setattr(models, "_BLOCK", block)
        # a dataset over one block of rows gathers its design rows whole
        data = Dataset.from_rows(ds.points()) if layout == "rows" else ds
        got = model.taylor_sums(theta, data)
        want = hstack_taylor_sums(model, theta, ds, block)
        for g, w in zip(got, want):
            assert np.asarray(g).shape == np.asarray(w).shape
            assert np.array_equal(g, w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        # a cache of any order holds the moments of that one order-2 pass
        cache = build_param_expanded(model, data, theta, order=order)
        assert cache.order == order
        held = (cache.eta0, cache.sum_ell, cache.sum_grad, cache.sum_hess)
        for g, w in zip(held, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_non_finite_term_in_a_later_block_names_its_observation(self, monkeypatch,
                                                                   order):
        model, ds, theta = setup_case(PoissonRegression, 3 * 64 + 17)
        X = ds.X.copy()
        X[150, 0] = 2000.0      # exp(eta) overflows in the third block only
        monkeypatch.setattr(models, "_BLOCK", 64)
        with pytest.raises(CacheBuildError, match="observation 150$"):
            model.taylor_sums(theta, Dataset(y=ds.y, X=X))
        # every order builds through that pass, so every order names it
        with pytest.raises(CacheBuildError, match="observation 150$"):
            build_param_expanded(model, Dataset(y=ds.y, X=X), theta, order=order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("model_cls", [PoissonRegression, LogisticRegression,
                                           NormalMeanModel])
    def test_ell_terms_are_the_three_terms_to_the_bit(self, model_cls, order):
        # Poisson shares one exp(eta) among them; every family keeps their bits
        model, ds, theta = setup_case(model_cls, 300)
        eta = model.design(ds) @ theta
        got = model.ell_terms(ds.y, eta)
        want = [model.ell(ds.y, eta), model.ell_d1(ds.y, eta), model.ell_d2(ds.y, eta)]
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        # a cache of this order evaluates those terms truncated at its order
        cache = build_param_expanded(model, ds, theta, order=order)
        theta1 = theta + 0.01
        idx = np.arange(ds.n)
        a = model.design(ds) @ (theta1 - theta)
        q = got[0]
        if order >= 1:
            q = q + got[1] * a
            if order >= 2:
                q = q + 0.5 * got[2] * a * a
        assert cache.values_at(theta1, idx).tobytes() == q.tobytes()

    def test_responses_are_validated_unless_checked(self):
        model, ds, theta = setup_case(PoissonRegression, 50)
        y = ds.y.copy()
        y[7] = 0.5
        bad = Dataset(y=y, X=ds.X)
        with pytest.raises(DomainError, match="nonnegative integers"):
            model.taylor_sums(theta, bad)
        # a caller that has validated them says so, and the pass skips it
        assert np.isfinite(model.taylor_sums(theta, bad, checked=True)[1])

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(0, 400), min_size=0, max_size=60),
           reals=st.lists(st.floats(-0.999, 1e6), max_size=3))
    @example(counts=[0, 1, 2, 3], reals=[])          # the table: max <= size
    @example(counts=[0, 0, 7], reals=[])             # max above the table bound
    @example(counts=[0, 1, 5, 2, 2, 1], reals=[0.5])  # a non-integer real
    @example(counts=[], reals=[-0.5])
    def test_log_factorial_is_gammaln_to_the_bit(self, counts, reals):
        y = np.array([0.0, *counts, *reals])
        for table_min in (0, models._TABLE_MIN_COUNTS):
            with mock.patch.object(models, "_TABLE_MIN_COUNTS", table_min):
                got = models._log_factorial(y)
            assert got.dtype == np.float64
            assert got.tobytes() == special.gammaln(y + 1.0).tobytes()

    def test_log_factorial_tables_small_counts(self, monkeypatch):
        seen = []
        real = special.gammaln

        def counting(x):
            seen.append(np.size(x))
            return real(x)

        monkeypatch.setattr(models.special, "gammaln", counting)
        many = models._TABLE_MIN_COUNTS
        models._log_factorial(np.arange(many, dtype=float) % 8)
        assert seen == [8]
        models._log_factorial(np.full(many, 2.0))
        models._log_factorial(np.array([0.0] * (many - 1) + [many]))
        assert seen == [8, 3, many + 1]
        # above the table bound, non-integer, or too few counts: one per count
        models._log_factorial(np.array([0.0] * (many - 1) + [many + 1]))
        models._log_factorial(np.array([0.0] * (many - 1) + [1.5]))
        models._log_factorial(np.arange(many - 1, dtype=float))
        assert seen == [8, 3, many + 1, many, many, many - 1]


# ---------------------------------------------------------------------------
# Dataset IO and simulation
# ---------------------------------------------------------------------------


TABLES = st.integers(0, 3).flatmap(lambda p: arrays(
    np.float64, st.tuples(st.integers(1, 6), st.just(p + 1)),
    elements=st.floats(allow_nan=False, allow_infinity=False)))


def check_round_trip_is_bit_exact(table):
    ds = Dataset(y=table[:, 0], X=table[:, 1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
    assert back.X.shape == ds.X.shape
    assert back.y.tobytes() == ds.y.tobytes()
    assert np.ascontiguousarray(back.X).tobytes() == np.ascontiguousarray(ds.X).tobytes()


class TestWriteCsv:
    def test_save_dataset_lines_end_in_newline_only(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(Dataset(y=[0.0, 3.0], X=[[0.1, -1e-300], [2.0, 1.0 / 3.0]]), path)
        assert path.read_bytes() == (b"y,x1,x2\n0.0,0.1,-1e-300\n"
                                     b"3.0,2.0,0.3333333333333333\n")

    def test_cells_formatted_by_type(self, tmp_path):
        path = tmp_path / "t.csv"
        models.write_csv(path, ["f", "b", "i", "s", "n"],
                         [np.array([0.1, np.nan]), np.array([True, False]),
                          np.array([1, -1], dtype=np.int8), ["param", "data"], [2, 75]],
                         comment="k = v")
        assert path.read_bytes() == (b"# k = v\nf,b,i,s,n\n0.1,1,1,param,2\n"
                                     b"nan,0,-1,data,75\n")

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_rows_written_a_block_at_a_time(self, tmp_path, monkeypatch, n):
        columns = [np.arange(n), np.linspace(-1.0, 1.0, n)]
        expected = "a,b\n" + "".join(f"{i},{x!r}\n" for i, x in zip(*(c.tolist()
                                                                        for c in columns)))
        monkeypatch.setattr(models, "_WRITE_ROWS", 3)
        models.write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def per_cell_lines(columns):
    """The rows as the writer once wrote them: every cell formatted on its own."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        if column.dtype.kind == "b":
            column = column.astype(np.int8)
        cells.append(list(map(repr if column.dtype.kind == "f" else str, column.tolist())))
    return "".join(",".join(row) + "\n" for row in zip(*cells))


# 0.0 and -0.0 compare equal but print apart; NaNs of any payload print alike
FLOAT_POOL = [0.0, -0.0, np.nan, np.frombuffer(struct.pack("<q", 0x7FF8000000000001))[0],
              -np.nan, 1.5, -1e-300, np.inf, 0.1 + 0.2]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.tuples(st.integers(0, len(FLOAT_POOL) - 1), st.booleans(),
                                st.sampled_from([-1, 1])), max_size=40),
       block=st.sampled_from([1, 3, 64]))
def test_repeated_floats_are_written_as_cell_by_cell(tmp_path_factory, picks, block):
    floats = np.array([FLOAT_POOL[k] for k, _, _ in picks], dtype=float)
    # a strided column, as trace.draws.T gives
    draws = np.column_stack([floats, -floats])
    columns = [range(1, len(picks) + 1), *draws.T, np.array([a for _, a, _ in picks]),
               floats[::-1].copy(), np.array([s for _, _, s in picks], dtype=np.int8)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with mock.patch.object(models, "_WRITE_ROWS", block):
        models.write_csv(path, ["i", "a", "b", "acc", "r", "s"], columns)
    assert path.read_text() == "i,a,b,acc,r,s\n" + per_cell_lines(columns)


class CsvCases:
    """load_dataset cases run on one part (TestDatasetIO) and on a forced
    split into three parts, two of them parsed by worker processes
    (TestDatasetIOSplit).  Each class also runs the round trip of
    check_round_trip_is_bit_exact under hypothesis."""

    def test_csv_round_trip(self, tmp_path):
        ds = Dataset(y=np.array([0.0, 3.0, 1.0]),
                     X=np.array([[0.25, -1.0], [2.0, 0.125], [-0.5, 9.0]]))
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(ds.y, back.y) and np.array_equal(ds.X, back.X)

    def test_parse_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,0.5\noops,0.5\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_dataset(path)
        path.write_text("y,x1\n1,0.5\n2,0.5,9\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_dataset(path)

    @pytest.mark.parametrize("text", [
        'y,x1\n"1","0.5"\n2,"-1e-3"\n',
        "y,x1\r\n1,0.5\r\n\r\n2,-1e-3\r\n",
        "\ufeffy,x1\n1,0.5\n2,-1e-3\n",
        "y,x1\n\n1,0.5\n\n2,-1e-3\n\n",
        "y,x1\r1,0.5\r\r2,-1e-3\r",
        "y,x1\n1,0.5\r\r\n2,-1e-3",
        'y,x1\n"1\n",0.5\n"2\n\n",-1e-3\n',
    ], ids=["quoted", "crlf", "bom", "blank-lines", "cr", "mixed-newlines",
            "quoted-line-break"])
    def test_accepted_dialect(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = load_dataset(path)
        assert np.array_equal(ds.y, [1.0, 2.0])
        assert np.array_equal(ds.X, [[0.5], [-1e-3]])

    def test_single_column_has_no_covariates(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("y\n3\n0\n")
        ds = load_dataset(path)
        assert ds.p == 0 and ds.X.shape == (2, 0)
        assert np.array_equal(ds.y, [3.0, 0.0])

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,x1\n")
        with pytest.raises(CsvParseError, match="no data rows"):
            load_dataset(path)

    @pytest.mark.parametrize("text, row", [
        ("y,x1\n1,0.5\n   \n2,0.5\n", "row 3"),
        ("y\n1\n\n   \n", "row 4"),
        ("y,x1\n1,0.5\n\n2\n", "row 4"),
        ("y,x1\n1,0.5,7\n2,0.5,7\n", "row 2"),
        ("y,x1\n1,0.5\n1_0,0.5\n", "row 3"),
    ], ids=["whitespace-line", "whitespace-line-one-column", "ragged", "wider-than-header",
            "digit-underscore"])
    def test_bad_line_is_named(self, tmp_path, text, row):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError, match=row):
            load_dataset(path)

    @pytest.mark.parametrize("make", [lambda d: d / "missing.csv", lambda d: d],
                             ids=["missing", "directory"])
    def test_unreadable_path_names_the_file(self, tmp_path, make):
        path = make(tmp_path)
        with pytest.raises(CsvParseError, match=f"{path}: cannot read"):
            load_dataset(path)


@pytest.fixture
def workers(monkeypatch):
    """The worker processes load_dataset starts; after the test, each must
    have been reaped."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    yield started
    assert all(proc.returncode is not None for proc in started)


@pytest.fixture
def split(monkeypatch, workers):
    """Cut every file into up to three parts: two for workers, one for this process."""
    monkeypatch.setattr(models, "_MIN_PART_BYTES", 0)
    monkeypatch.setattr(models, "_FIRST_PART_EXTRA_BYTES", 0)
    monkeypatch.setattr(models, "_usable_cores", lambda: 3)
    return workers


class TestDatasetIOSplit(CsvCases):
    @pytest.fixture(autouse=True)
    def _split(self, split):
        return split

    @settings(max_examples=50, deadline=None)
    @given(table=TABLES)
    def test_csv_round_trip_is_bit_exact(self, table):
        check_round_trip_is_bit_exact(table)

    def test_parts_run_in_workers(self, tmp_path, split):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "".join(f"{i},0.5\n" for i in range(30)))
        assert np.array_equal(load_dataset(path).y, np.arange(30.0))
        assert len(split) == 2


CUT_CASES = {
    "blank-lines": "y,x1\n\n1,0.5\n\n\n2,-1e-3\n\n",
    "no-final-newline": "y,x1\n1,0.5\n\n2,-1e-3\n3,4",
    "crlf": "y,x1\r\n1,0.5\r\n\r\n2,-1e-3\r\n3,4\r\n\r\n",
    "lf-and-crlf": "y,x1\n1,0.5\r\n\n2,-1e-3\n\r\n3,4\r\n",
    "quoted-header": '"y","x1"\n1,0.5\n\n2,3\n',
    "whitespace-line": "y,x1\n1,0.5\n   \n2,0.5\n",
    "bad-cell": "y,x1\n1,0.5\n2,0.5\n3,x\n4,0\n",
    "ragged": "y,x1\n1,0.5\n\n2\n3,1\n",
    "lone-cr": "y,x1\n1,0.5\r2,-1e-3\n3,4\r\n\n5,6\n",
}


@pytest.mark.parametrize("text", list(CUT_CASES.values()), ids=list(CUT_CASES))
def test_every_cut_gives_the_one_part_result(tmp_path, monkeypatch, split, text):
    """This process parses the lines before a cut and a worker the rest,
    for every cut just after a '\\n': the rows, or the error and the file
    line it names, are those of the file parsed in one part.  A worker's
    part of blank lines starts a worker and has no rows."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(models, "_MIN_PART_BYTES", 1 << 30)
    try:
        want = load_dataset(path)
    except CsvParseError as exc:
        want = str(exc)
    monkeypatch.setattr(models, "_MIN_PART_BYTES", 0)
    first_line = text.index("\n") + 1
    for cut in range(first_line + 1, len(text)):
        if text[cut - 1] != "\n":
            continue
        monkeypatch.setattr(models, "_part_starts",
                            lambda raw, first_line, size, k, cut=cut: [first_line, cut])
        try:
            got = load_dataset(path)
        except CsvParseError as exc:
            assert str(exc) == want, cut
        else:
            assert np.array_equal(got.y, want.y) and np.array_equal(got.X, want.X), cut
    assert split


@pytest.mark.parametrize("text, parts", [
    ("y,x1\n1,0.5\r2,-1e-3\n" + "3,4\n" * 8, 3),
    ("y,x1\r\r\n1,0.5\n2,-1e-3\n" + "3,4\n" * 8, 1),
    ('y,x1\n1,0.5\n2,"-1e-3"\n' + "3,4\n" * 8, 1),
], ids=["lone-cr", "lone-cr-in-header", "quoted-cell"])
def test_only_header_carriage_return_or_quote_keeps_one_part(tmp_path, monkeypatch, split,
                                                             text, parts):
    """A lone '\\r' in the data is a line end the parts share with the
    one-part parse; one in the header line, or a '"', keeps the file whole."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    got = load_dataset(path)
    assert len(split) == parts - 1
    monkeypatch.setattr(models, "_MIN_PART_BYTES", 1 << 30)
    want = load_dataset(path)
    assert np.array_equal(got.y, want.y) and np.array_equal(got.X, want.X)


def test_cut_through_a_long_file(tmp_path, monkeypatch, split):
    """This process parses a 1 MB span that ends in a long row, and a worker
    the span after it, which starts with a blank line."""
    head = b"y\n" + b"2\n" * 300_000 + b"7."
    cut = 2 + 2**20
    text = head + b"0" * (cut - 1 - len(head)) + b"\n\n5\n6\n"
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    monkeypatch.setattr(models, "_part_starts", lambda raw, first_line, size, k: [first_line, cut])
    ds = load_dataset(path)
    assert len(split) == 1 and ds.n == 300_003
    assert np.array_equal(ds.y[-4:], [2.0, 7.0, 5.0, 6.0])


@pytest.mark.parametrize("how", ["no-interpreter", "script-missing", "output-cut-short"])
def test_failed_worker_part_is_parsed_here(tmp_path, monkeypatch, split, how):
    # values no other test writes, so a buffer left unfilled cannot match
    table = np.random.default_rng([41, len(how)]).normal(size=(30, 2))
    path = tmp_path / "d.csv"
    save_dataset(Dataset(y=table[:, 0], X=table[:, 1:]), path)
    if how == "no-interpreter":
        monkeypatch.setattr(sys, "executable", "")
    elif how == "script-missing":
        monkeypatch.setattr(models, "_WORKER", str(tmp_path / "absent.py"))
    else:
        # announces its rows, then sends 8 bytes of them
        script = tmp_path / "short.py"
        script.write_text(
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('part', {models._WORKER!r})\n"
            "part = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(part)\n"
            "rows = part.parse(sys.argv[1], span=(int(sys.argv[2]), int(sys.argv[3])))\n"
            "sys.stdout.buffer.write(part.SHAPE.pack(*rows.shape) + rows.tobytes()[:8])\n")
        monkeypatch.setattr(models, "_WORKER", str(script))
    back = load_dataset(path)
    assert np.array_equal(back.y, table[:, 0]) and np.array_equal(back.X, table[:, 1:])
    assert len(split) == (0 if how == "no-interpreter" else 2)


class TestDatasetIO(CsvCases):
    @settings(max_examples=50, deadline=None)
    @given(table=TABLES)
    def test_csv_round_trip_is_bit_exact(self, table):
        check_round_trip_is_bit_exact(table)

    def test_simulation_is_deterministic(self):
        a = simulate_poisson(1000, (1.0, 0.75), seed=123)
        b = simulate_poisson(1000, (1.0, 0.75), seed=123)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
        c = simulate_poisson(1000, (1.0, 0.75), seed=124)
        assert not np.array_equal(a.y, c.y)

    def test_sample_mean_approaches_lognormal_moment(self):
        # E[exp(t0 + t1 X)] = exp(t0 + t1^2/2) for X ~ N(0,1)
        ds = simulate_poisson(100_000, (1.0, 0.75), seed=77)
        expected = math.exp(1.0 + 0.75**2 / 2.0)
        assert np.mean(ds.y) == pytest.approx(expected, rel=0.02)

    def test_dataset_invariants(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([1.0, 2.0]), X=np.zeros((3, 1)))
        with pytest.raises(DomainError):
            Dataset(y=np.array([]), X=np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# Datasets over one block of rows (y_i, x_i)
# ---------------------------------------------------------------------------


class TestDatasetRows:
    @staticmethod
    def pair(n=40, p=3):
        """The same data as a dataset over rows and as a plain one."""
        rng = np.random.default_rng(5)
        block = np.column_stack([rng.poisson(2.0, n).astype(float),
                                 rng.standard_normal((n, p))])
        return Dataset.from_rows(block), Dataset(y=block[:, 0].copy(), X=block[:, 1:].copy())

    def test_y_and_x_are_views_of_the_rows(self, tmp_path):
        rows, _ = self.pair()
        assert rows.rows.flags.c_contiguous
        assert np.shares_memory(rows.y, rows.rows) and np.shares_memory(rows.X, rows.rows)
        path = tmp_path / "d.csv"
        save_dataset(rows, path)
        loaded = load_dataset(path)
        assert loaded.rows is not None and np.shares_memory(loaded.X, loaded.rows)
        assert Dataset(y=loaded.y, X=loaded.X).rows is None

    @pytest.mark.parametrize("idx", [
        np.array([3, 0, 39, 3, 17]), np.array([], dtype=np.intp), np.array([5], dtype=np.uint32),
        [4, 4, 1], slice(5, 12), slice(None, None, 3), None, np.arange(40) % 3 == 0,
        np.array([-1, -40])],
        ids=["array", "empty", "uint", "list", "slice", "stride", "all", "mask", "negative"])
    def test_design_rows_are_the_strided_ones_to_the_bit(self, idx):
        rows, plain = self.pair()
        model = PoissonRegression()
        got, want = model.design(rows, idx), model.design(plain, idx)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # a copy: the intercept column is not written into the data
        assert not np.shares_memory(got, rows.rows)
        assert np.array_equal(rows.y, plain.y)

    def test_pickles_the_rows_once(self):
        rows, plain = self.pair(n=2000)
        blob = pickle.dumps(rows)
        # not again as the views y and X
        assert len(blob) < 1.1 * rows.rows.nbytes
        back = pickle.loads(blob)
        assert back.rows.tobytes() == rows.rows.tobytes()
        assert np.shares_memory(back.y, back.rows) and np.shares_memory(back.X, back.rows)
        assert back.X.tobytes() == rows.X.tobytes() and back.y.tobytes() == rows.y.tobytes()
        assert pickle.loads(pickle.dumps(plain)).rows is None
