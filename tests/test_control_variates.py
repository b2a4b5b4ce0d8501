import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from submcmc import (
    CacheBuildError,
    Dataset,
    DomainError,
    ExactControlVariate,
    LogisticRegression,
    ParamExpandedCache,
    build_data_expanded,
    build_param_expanded,
    difference_estimate,
    differences,
    kmeans_cluster,
    load_cache,
    save_cache,
    select_expansion_point,
    simulate_poisson,
)
from submcmc import models
from submcmc.models import MODELS


def poisson_param_cv_closed_form(theta, center, dataset):
    """Worked-example closed form: value + first + second order in the
    linear predictor mu = w'theta.  Independent of the generic cache path."""
    w = np.column_stack([np.ones(dataset.n), dataset.X])
    y = dataset.y
    mu_star = w @ center
    mu = w @ theta
    log_fact = np.array([math.lgamma(v + 1.0) for v in y])
    return (y * mu_star - np.exp(mu_star) - log_fact
            + (y - np.exp(mu_star)) * (mu - mu_star)
            - 0.5 * np.exp(mu_star) * (mu - mu_star) ** 2)


def poisson_data_cv_closed_form(theta, dataset, centroids, assignment):
    """Worked-example closed form for the data-space expansion."""
    y, x = dataset.y, dataset.X[:, 0]
    yc = centroids[assignment, 0]
    xc = centroids[assignment, 1]
    alpha, beta = theta
    mu_c = alpha + beta * xc
    mu_i = alpha + beta * x
    log_fact_c = np.array([math.lgamma(v + 1.0) for v in yc])
    return (yc * mu_c - np.exp(mu_c) - log_fact_c
            + (y - yc) * (mu_c - special.digamma(yc + 1.0))
            - 0.5 * (y - yc) ** 2 * special.polygamma(1, yc + 1.0)
            + (y - np.exp(mu_c)) * (mu_i - mu_c)
            - 0.5 * np.exp(mu_c) * (mu_i - mu_c) ** 2)


class TestParamExpanded:
    def test_exact_at_own_expansion_point(self, poisson_model, poisson_example,
                                          example_center, param_caches):
        ell = poisson_model.loglik(example_center, poisson_example)
        idx = np.arange(poisson_example.n)
        for order in (0, 1, 2):
            q = param_caches[order].values_at(example_center, idx)
            np.testing.assert_array_equal(q, ell)
            d = differences(poisson_model, param_caches[order], poisson_example,
                            example_center, idx)
            np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_matches_worked_example_closed_form(self, poisson_example, example_center,
                                                param_caches):
        rng = np.random.default_rng(31)
        idx = np.arange(poisson_example.n)
        for _ in range(5):
            theta = example_center + rng.normal(scale=0.2, size=2)
            generic = param_caches[2].values_at(theta, idx)
            closed = poisson_param_cv_closed_form(theta, example_center, poisson_example)
            np.testing.assert_allclose(generic, closed, rtol=1e-12, atol=1e-12)

    def test_cached_total_matches_brute_force(self, poisson_example, example_center,
                                              param_caches):
        rng = np.random.default_rng(32)
        idx = np.arange(poisson_example.n)
        for order in (0, 1, 2):
            theta = example_center + rng.normal(scale=0.1, size=2)
            brute = math.fsum(param_caches[order].values_at(theta, idx))
            assert param_caches[order].sum_values(theta) == pytest.approx(brute, rel=1e-9)

    def test_cache_holds_one_predictor_per_observation(self, poisson_model,
                                                       poisson_example, example_center,
                                                       param_caches):
        # eta0_i = w_i'theta0 is all the cache keeps per observation: 8n bytes
        eta = poisson_model.design(poisson_example) @ example_center
        for cache in param_caches.values():
            assert cache.eta0.shape == (poisson_example.n,)
            assert cache.eta0.nbytes == 8 * poisson_example.n
            np.testing.assert_array_equal(cache.eta0, eta)
            for name in ("ell", "grad", "hess"):
                assert not hasattr(cache, name)

    def test_per_index_terms_match_model_derivatives(self, poisson_model, poisson_example,
                                                     example_center, param_caches):
        # q_i and its gradient rebuilt from loglik, grad_theta and hess_theta
        theta = example_center + np.array([0.05, -0.03])
        delta = theta - example_center
        idx = np.arange(0, poisson_example.n, 7)
        ell0 = poisson_model.loglik(example_center, poisson_example, idx)
        g0 = poisson_model.grad_theta(example_center, poisson_example, idx)
        H0 = poisson_model.hess_theta(example_center, poisson_example, idx)
        q = [ell0, ell0 + g0 @ delta, ell0 + g0 @ delta + 0.5 * (H0 @ delta) @ delta]
        grads = [np.zeros_like(g0), g0, g0 + H0 @ delta]
        for order, cache in param_caches.items():
            np.testing.assert_allclose(cache.values_at(theta, idx), q[order], rtol=1e-13)
            np.testing.assert_allclose(cache.grads_at(theta, idx), grads[order],
                                       rtol=1e-12, atol=1e-13)

    def test_gradient_paths_match_finite_differences(self, poisson_example,
                                                     example_center, param_caches):
        # displaced from the mode so the gradient dominates FD cancellation;
        # the total is polynomial in theta, so central differences are exact
        theta = example_center + np.array([0.3, -0.2])
        h = 1e-4
        for order in (1, 2):
            cache = param_caches[order]
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (cache.sum_values(theta + e) - cache.sum_values(theta - e)) / (2 * h)
                assert cache.grad_sum(theta)[j] == pytest.approx(fd, rel=1e-6)
        np.testing.assert_array_equal(param_caches[0].grad_sum(theta), np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_build_error_names_observation(self, poisson_model, poisson_example):
        # exp(w'theta) overflows at the expansion point for every row
        with pytest.raises(CacheBuildError, match="observation 0"):
            build_param_expanded(poisson_model, poisson_example,
                                 np.array([800.0, 0.0]), order=2)

    def test_sums_match_per_observation_terms(self, poisson_model, poisson_example,
                                              example_center, param_caches):
        cache = param_caches[2]
        ell = poisson_model.loglik(example_center, poisson_example)
        grad = poisson_model.grad_theta(example_center, poisson_example)
        hess = poisson_model.hess_theta(example_center, poisson_example)
        assert cache.sum_ell == pytest.approx(math.fsum(ell), rel=1e-12)
        np.testing.assert_allclose(cache.sum_grad, grad.sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(cache.sum_hess, hess.sum(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(cache.sum_hess, cache.sum_hess.T)
        np.testing.assert_array_equal(param_caches[1].sum_hess, np.zeros((2, 2)))
        np.testing.assert_array_equal(param_caches[0].sum_grad, np.zeros(2))

    def test_model_without_glm_form_rejected(self, poisson_example, example_center):
        from tests.test_estimators import TableModel

        with pytest.raises(DomainError, match="GLM form"):
            build_param_expanded(TableModel(np.zeros(poisson_example.n)), poisson_example,
                                 example_center, order=2)


class TestKMeans:
    def test_every_point_its_own_centroid(self, poisson_model, poisson_example):
        small = Dataset(y=poisson_example.y[:40], X=poisson_example.X[:40])
        res = kmeans_cluster(small, n_clusters=40, seed=0)
        cache = build_data_expanded(poisson_model, small, res, order=2)
        np.testing.assert_allclose(cache.dev, 0.0, atol=1e-12)

    def test_single_cluster_is_the_mean(self, poisson_example):
        res = kmeans_cluster(poisson_example, n_clusters=1, seed=0)
        np.testing.assert_allclose(res.centroids[0],
                                   poisson_example.points().mean(axis=0), rtol=1e-12)

    def test_objective_non_increasing(self, poisson_example):
        res = kmeans_cluster(poisson_example, n_clusters=20, seed=4)
        path = np.asarray(res.objective_path)
        assert path.size >= 1
        assert np.all(np.diff(path) <= 1e-9)

    def test_deterministic_for_fixed_seed(self, poisson_example):
        a = kmeans_cluster(poisson_example, n_clusters=10, seed=7)
        b = kmeans_cluster(poisson_example, n_clusters=10, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignment, b.assignment)

    def test_nearest_centroid_in_standardized_space(self, poisson_example):
        res = kmeans_cluster(poisson_example, n_clusters=15, seed=1)
        S = poisson_example.points() / res.scales
        C = res.centroids / res.scales
        dist2 = np.sum((S[:, None, :] - C[None, :, :]) ** 2, axis=2)
        np.testing.assert_array_equal(res.assignment, np.argmin(dist2, axis=1))

    def test_reports_whether_the_assignment_settled(self, poisson_example):
        assert kmeans_cluster(poisson_example, n_clusters=10, seed=7).converged
        stopped = kmeans_cluster(poisson_example, n_clusters=10, seed=7, max_iter=1)
        assert not stopped.converged and len(stopped.objective_path) == 1

    def test_row_blocks_change_no_bit(self, monkeypatch, poisson_example):
        # 7-row blocks, the last one short, give what one block of all rows
        # gives, whether or not the assignment settles
        from submcmc import control_variates
        runs = {}
        for block in (poisson_example.n, 7):
            monkeypatch.setattr(control_variates, "_KMEANS_BLOCK", block)
            runs[block] = [kmeans_cluster(poisson_example, n_clusters=30, seed=2, max_iter=it)
                           for it in (100, 3)]
        for whole, blocked in zip(runs[poisson_example.n], runs[7]):
            assert blocked.converged == whole.converged
            assert blocked.objective_path == whole.objective_path
            np.testing.assert_array_equal(blocked.centroids, whole.centroids)
            np.testing.assert_array_equal(blocked.assignment, whole.assignment)
        assert [run.converged for run in runs[7]] == [True, False]

    def test_k_larger_than_n_rejected(self, poisson_example):
        with pytest.raises(DomainError):
            kmeans_cluster(poisson_example, n_clusters=poisson_example.n + 1)


@pytest.fixture(scope="module")
def clustering(poisson_example):
    return kmeans_cluster(poisson_example, n_clusters=75, seed=5)


@pytest.fixture(scope="module")
def cache(poisson_model, poisson_example, clustering):
    return build_data_expanded(poisson_model, poisson_example, clustering, order=2)


class TestDataExpanded:
    def test_observation_at_centroid_gets_centroid_value(self, poisson_model,
                                                         poisson_example, example_center):
        # with K = n every observation sits exactly at its centroid
        small = Dataset(y=poisson_example.y[:30], X=poisson_example.X[:30])
        res = kmeans_cluster(small, n_clusters=30, seed=2)
        for order in (0, 1, 2):
            c = build_data_expanded(poisson_model, small, res, order=order)
            q = c.values_at(example_center, np.arange(30))
            ell = poisson_model.loglik(example_center, small)
            np.testing.assert_allclose(q, ell, rtol=1e-12)

    def test_matches_worked_example_closed_form(self, poisson_example, example_center,
                                                cache, clustering):
        rng = np.random.default_rng(41)
        idx = np.arange(poisson_example.n)
        for _ in range(5):
            theta = example_center + rng.normal(scale=0.2, size=2)
            generic = cache.values_at(theta, idx)
            closed = poisson_data_cv_closed_form(theta, poisson_example,
                                                 clustering.centroids,
                                                 clustering.assignment)
            np.testing.assert_allclose(generic, closed, rtol=1e-12, atol=1e-12)

    def test_cached_total_matches_brute_force(self, poisson_example, example_center, cache):
        theta = example_center + np.array([0.08, -0.05])
        idx = np.arange(poisson_example.n)
        brute = math.fsum(cache.values_at(theta, idx))
        assert cache.sum_values(theta) == pytest.approx(brute, rel=1e-9)
        # logistic, at every order: 0/1 responses and a fixed assignment to
        # centroids drawn from the data, so no k-means run is needed
        rng = np.random.default_rng(33)
        data = Dataset(y=(poisson_example.y > 2).astype(float), X=poisson_example.X)
        assignment = rng.integers(0, 12, size=data.n)
        centroids = data.points()[rng.choice(data.n, size=12, replace=False)]
        for order in (0, 1, 2):
            logit = build_data_expanded(LogisticRegression(), data, (centroids, assignment),
                                        order=order)
            brute = math.fsum(logit.values_at(theta, idx))
            assert logit.sum_values(theta) == pytest.approx(brute, rel=1e-9)

    def test_aggregated_moments_match_direct_sums(self, poisson_example, cache):
        Z = poisson_example.points()
        for c in range(cache.n_clusters):
            members = cache.assignment == c
            dev = Z[members] - cache.centroids[c]
            assert cache.counts[c] == members.sum()
            np.testing.assert_allclose(cache.sum_dev[c], dev.sum(axis=0), atol=1e-9)
            np.testing.assert_allclose(cache.sum_outer[c],
                                       np.einsum("ki,kj->ij", dev, dev), atol=1e-9)

    def test_moments_equal_add_at_bit_for_bit(self, poisson_model):
        # np.add.at is the reference; cluster 3 of 6 has no members
        rng = np.random.default_rng(8)
        data = Dataset(y=rng.poisson(2.0, size=5_000).astype(float),
                       X=rng.normal(size=(5_000, 2)))
        assignment = rng.choice([0, 1, 2, 4, 5], size=data.n)
        centroids = rng.normal(size=(6, 3))
        cache = build_data_expanded(poisson_model, data, (centroids, assignment))
        dev = data.points() - centroids[assignment]
        sum_dev = np.zeros((6, 3))
        np.add.at(sum_dev, assignment, dev)
        sum_outer = np.zeros((6, 3, 3))
        np.add.at(sum_outer, assignment, dev[:, :, None] * dev[:, None, :])
        assert np.array_equal(cache.sum_dev, sum_dev)
        assert np.array_equal(cache.sum_outer, sum_outer)
        assert cache.counts[3] == 0 and not cache.sum_dev[3].any()
        assert not cache.sum_outer[3].any()

    def test_dispersion_insensitive_to_distance_from_center(self, poisson_model,
                                                            poisson_example,
                                                            example_center, cache):
        from submcmc.experiments import sphere_direction

        direction = sphere_direction(2, seed=0)
        idx = np.arange(poisson_example.n)
        sds = []
        for radius in (0.025, 0.25):
            d = differences(poisson_model, cache, poisson_example,
                            example_center + radius * direction, idx)
            sds.append(float(np.std(d)))
        ratio = sds[1] / sds[0]
        assert 0.5 <= ratio <= 2.0

    def test_theta_gradients_unavailable(self, cache, example_center):
        with pytest.raises(NotImplementedError):
            cache.grads_at(example_center, [0])
        with pytest.raises(NotImplementedError):
            cache.grad_sum(example_center)

    def test_difference_estimate_evaluates_the_centroids_once(
            self, monkeypatch, poisson_model, poisson_example, example_center, cache):
        # q_i at the subsample and sum_i q_i come from one centroid evaluation,
        # with the bits of the two evaluations they replace
        theta = example_center + np.array([0.03, -0.02])
        idx = np.random.default_rng(8).integers(0, poisson_example.n, size=40)
        n, m = poisson_example.n, idx.size
        d = poisson_model.loglik(theta, poisson_example, idx) - cache.values_at(theta, idx)
        total = float(d.sum())
        centered = d - total / m
        want_value = cache.sum_values(theta) + n / m * total
        want_var = n * n / m * (float(centered @ centered) / m)

        calls = []
        real = poisson_model.loglik_at

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(poisson_model, "loglik_at", counting)
        est = difference_estimate(poisson_model, cache, poisson_example, theta, idx)
        assert len(calls) == 1
        assert est.value == want_value and est.sample_variance == want_var

    def test_block_poisson_estimate_evaluates_the_centroids_once(
            self, monkeypatch, poisson_model, poisson_example, example_center, cache):
        from submcmc import BlockPoissonConfig, block_poisson_evaluate, draw_block_poisson

        cfg = BlockPoissonConfig(n_products=4, batch_size=5, bound=-4.0)
        state = draw_block_poisson(poisson_example.n, 4, 5, np.random.default_rng(9))
        calls = []
        real = poisson_model.loglik_at

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(poisson_model, "loglik_at", counting)
        for k, step in enumerate(([0.03, -0.02], [0.03, -0.02], [-0.01, 0.04])):
            block_poisson_evaluate(poisson_model, cache, poisson_example,
                                   example_center + np.array(step), cfg, state)
            assert len(calls) == k + 1


class TestDifferences:
    def test_cubic_scaling_of_worst_difference(self, poisson_model, poisson_example,
                                               example_center, param_caches):
        # halving the distance to the expansion point shrinks max |d_i| ~8x
        direction = np.array([0.6, 0.8])
        radii = np.array([0.2, 0.1, 0.05, 0.025])
        idx = np.arange(poisson_example.n)
        worst = [np.max(np.abs(differences(poisson_model, param_caches[2], poisson_example,
                                           example_center + r * direction, idx)))
                 for r in radii]
        slope = np.polyfit(np.log(radii), np.log(worst), 1)[0]
        assert 2.6 <= slope <= 3.4

    def test_variance_non_increasing_in_expansion_order(self, poisson_model,
                                                        poisson_example, example_center,
                                                        param_caches):
        direction = np.array([1.0, 1.0]) / math.sqrt(2.0)
        theta = example_center + 0.025 * direction
        idx = np.arange(poisson_example.n)
        variances = [float(np.var(differences(poisson_model, param_caches[o],
                                              poisson_example, theta, idx)))
                     for o in (0, 1, 2)]
        assert variances[0] >= variances[1] >= variances[2]

    def test_index_out_of_range(self, poisson_model, poisson_example, example_center,
                                param_caches):
        with pytest.raises(DomainError):
            differences(poisson_model, param_caches[2], poisson_example,
                        example_center, [poisson_example.n])

    @settings(max_examples=25, deadline=None)
    @given(radius=st.floats(0.0, 0.5), angle=st.floats(0.0, 2.0 * math.pi),
           order=st.sampled_from([0, 1, 2]))
    def test_totals_decompose_exactly(self, poisson_model, poisson_example,
                                      example_center, param_caches, radius, angle,
                                      order):
        # sum_i q_i + sum_i d_i must rebuild sum_i ell_i for any theta
        theta = example_center + radius * np.array([math.cos(angle), math.sin(angle)])
        idx = np.arange(poisson_example.n)
        cache = param_caches[order]
        total = cache.sum_values(theta) + math.fsum(
            differences(poisson_model, cache, poisson_example, theta, idx))
        assert total == pytest.approx(poisson_model.loglik_sum(theta, poisson_example),
                                      rel=1e-9)


class TestExactControlVariate:
    def test_differences_identically_zero(self, poisson_model, poisson_example):
        cache = ExactControlVariate(poisson_model, poisson_example)
        theta = np.array([0.4, 0.3])
        d = differences(poisson_model, cache, poisson_example, theta,
                        np.arange(poisson_example.n))
        np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_total_takes_log_factorials_once(self, monkeypatch, poisson_model,
                                             poisson_example):
        # log y! over all n responses is computed at construction only, and
        # the total keeps the bits of loglik_sum
        sizes = []
        real = models._log_factorial

        def counting(y):
            sizes.append(np.size(y))
            return real(y)

        monkeypatch.setattr(models, "_log_factorial", counting)
        cache = ExactControlVariate(poisson_model, poisson_example)
        assert sizes == [poisson_example.n]
        for theta in (np.array([0.4, 0.3]), np.array([1.0, 0.75])):
            sizes.clear()
            got = cache.sum_values(theta)
            assert sizes == []
            assert got == poisson_model.loglik_sum(theta, poisson_example)

    def test_pickles_for_worker_processes(self, poisson_model, poisson_example):
        import pickle
        cache = ExactControlVariate(poisson_model, poisson_example)
        back = pickle.loads(pickle.dumps(cache))
        theta = np.array([0.9, 0.7])
        assert back.sum_values(theta) == cache.sum_values(theta)


def random_cache(n, d, order, kind, seed, family="poisson"):
    """(model, data, cache, rng) for a random problem of a GLM family: d
    coordinates of theta (one for the normal-mean model), on Poisson counts,
    their 0/1 indicators of exceeding 1 for the logistic family."""
    model = MODELS[family]()
    rng = np.random.default_rng(seed)
    data = simulate_poisson(n, rng.normal(0.0, 0.4, size=d), seed=seed)
    if family == "logistic":
        data = Dataset(y=(data.y > 1).astype(float), X=data.X)
    if kind == "param":
        point = rng.normal(0.0, 0.4, size=model.dim(data))
        cache = build_param_expanded(model, data, point, order)
    else:
        clusters = kmeans_cluster(data, int(rng.integers(1, n + 1)), seed=seed)
        cache = build_data_expanded(model, data, clusters, order)
    return model, data, cache, rng


RANDOM_CACHES = dict(n=st.integers(2, 60), d=st.integers(1, 4), order=st.integers(0, 2),
                     kind=st.sampled_from(["param", "data"]), seed=st.integers(0, 2**16))


class TestCachedTotal:
    # the fixed-example brute-force tests above, over random problems
    @settings(max_examples=50, deadline=None)
    @given(**RANDOM_CACHES)
    def test_sum_values_is_the_sum_of_values_at(self, n, d, order, kind, seed):
        _, _, cache, rng = random_cache(n, d, order, kind, seed)
        # a data-expanded cache has no expansion point in theta
        theta = getattr(cache, "expansion_point", 0.0) + rng.normal(0.0, 0.1, size=d)
        brute = math.fsum(cache.values_at(theta, np.arange(n)))
        assert cache.sum_values(theta) == pytest.approx(brute, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(**{**RANDOM_CACHES, "n": st.integers(2, 300)},
           family=st.sampled_from(sorted(MODELS)), block=st.sampled_from([7, 64, 1 << 16]))
    def test_every_family_over_full_and_partial_blocks(self, n, d, order, kind, seed,
                                                        family, block):
        # the parameter-expanded totals come from taylor_sums' blocked pass
        with mock.patch.object(models, "_BLOCK", block):
            model, data, cache, rng = random_cache(n, d, order, kind, seed, family)
        theta = (getattr(cache, "expansion_point", 0.0)
                 + rng.normal(0.0, 0.1, size=model.dim(data)))
        brute = math.fsum(cache.values_at(theta, np.arange(n)))
        assert cache.sum_values(theta) == pytest.approx(brute, rel=1e-9)


class TestSerialization:
    def test_param_cache_round_trip(self, poisson_model, poisson_example, example_center,
                                    param_caches, tmp_path):
        path = tmp_path / "param.cvc"
        save_cache(param_caches[2], path)
        back = load_cache(path, model=poisson_model, dataset=poisson_example)
        theta = example_center + 0.04
        idx = np.arange(0, poisson_example.n, 13)
        assert back.sum_values(theta) == param_caches[2].sum_values(theta)
        np.testing.assert_array_equal(back.values_at(theta, idx),
                                      param_caches[2].values_at(theta, idx))

    def test_data_cache_round_trip(self, poisson_model, poisson_example,
                                   example_center, tmp_path):
        clustering = kmeans_cluster(poisson_example, n_clusters=20, seed=3)
        cache = build_data_expanded(poisson_model, poisson_example, clustering, order=2)
        path = tmp_path / "data.cvc"
        save_cache(cache, path)
        back = load_cache(path, model=poisson_model)
        theta = example_center + 0.04
        idx = np.arange(0, poisson_example.n, 13)
        assert back.sum_values(theta) == cache.sum_values(theta)
        np.testing.assert_array_equal(back.values_at(theta, idx),
                                      cache.values_at(theta, idx))

    def test_data_cache_requires_model(self, poisson_model, poisson_example, tmp_path):
        clustering = kmeans_cluster(poisson_example, n_clusters=5, seed=3)
        cache = build_data_expanded(poisson_model, poisson_example, clustering, order=1)
        path = tmp_path / "data.cvc"
        save_cache(cache, path)
        with pytest.raises(DomainError, match="model"):
            load_cache(path)

    def test_param_cache_requires_model_and_dataset(self, poisson_model, poisson_example,
                                                    param_caches, tmp_path):
        path = tmp_path / "param.cvc"
        save_cache(param_caches[2], path)
        with pytest.raises(DomainError, match="dataset"):
            load_cache(path, model=poisson_model)
        small = Dataset(y=poisson_example.y[:10], X=poisson_example.X[:10])
        with pytest.raises(DomainError, match="1000 observations"):
            load_cache(path, model=poisson_model, dataset=small)

    @pytest.mark.parametrize("entry", ["difference_estimate", "differences",
                                       "block_poisson_evaluate", "pmmh_run", "hmc_ecs_run"])
    def test_cache_built_on_other_rows_rejected(self, poisson_model, poisson_example,
                                                example_center, tmp_path, entry):
        # a data-expanded cache of 300 rows loaded beside 100 of them: an
        # estimate would mix ell_i of 100 rows with q_i and sum q_i of 300
        from submcmc import (BlockPoissonConfig, DependenceConfig, DifferenceConfig,
                             HmcConfig, ProposalConfig, block_poisson_evaluate,
                             draw_block_poisson, hmc_ecs_run, pmmh_run)
        big = Dataset(y=poisson_example.y[:300], X=poisson_example.X[:300])
        small = Dataset(y=poisson_example.y[:100], X=poisson_example.X[:100])
        path = tmp_path / "data.cvc"
        save_cache(build_data_expanded(poisson_model, big, kmeans_cluster(big, 10, seed=3)),
                   path)
        cache = load_cache(path, model=poisson_model, dataset=small)
        idx, theta = np.arange(20), example_center
        run = {
            "difference_estimate": lambda: difference_estimate(
                poisson_model, cache, small, theta, idx),
            "differences": lambda: differences(poisson_model, cache, small, theta, idx),
            "block_poisson_evaluate": lambda: block_poisson_evaluate(
                poisson_model, cache, small, theta, BlockPoissonConfig(2, 5, bound=-2.0),
                draw_block_poisson(small.n, 2, 5, np.random.default_rng(0))),
            "pmmh_run": lambda: pmmh_run(
                poisson_model, small, cache, DifferenceConfig(m=20),
                ProposalConfig(step_scale=0.02), DependenceConfig(), theta, 10, seed=1),
            "hmc_ecs_run": lambda: hmc_ecs_run(
                poisson_model, small, ExactControlVariate(poisson_model, big),
                HmcConfig(step_size=0.01, n_steps=2), 20, theta, 10, seed=1),
        }[entry]
        with pytest.raises(DomainError, match="300 observations, dataset has 100"):
            run()

    @staticmethod
    def assert_same_bits(back, cache, theta, n):
        assert back.sum_values(theta) == cache.sum_values(theta)
        idx = np.arange(n)
        np.testing.assert_array_equal(back.values_at(theta, idx), cache.values_at(theta, idx))
        if isinstance(cache, ParamExpandedCache):
            np.testing.assert_array_equal(back.grad_sum(theta), cache.grad_sum(theta))

    @settings(max_examples=25, deadline=None)
    @given(**RANDOM_CACHES)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, n, d, order, kind, seed):
        model, data, cache, rng = random_cache(n, d, order, kind, seed)
        path = tmp_path_factory.mktemp("cache") / "cache.cvc"
        save_cache(cache, path)
        back = load_cache(path, model=model, dataset=data)
        self.assert_same_bits(back, cache, rng.normal(0.0, 0.4, size=d), n)

    # a multi-chain run pickles the plan, cache included, into its workers;
    # the pinned case rounded its order-2 totals differently once unpickled
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 100), d=st.integers(1, 8), order=st.integers(0, 2),
           kind=st.sampled_from(["param", "data"]), seed=st.integers(0, 2**16))
    @example(n=100, d=4, order=2, kind="param", seed=0)
    def test_pickle_round_trip_is_bit_exact(self, n, d, order, kind, seed):
        import pickle
        _, _, cache, rng = random_cache(n, d, order, kind, seed)
        back = pickle.loads(pickle.dumps(cache))
        self.assert_same_bits(back, cache, rng.normal(0.0, 0.4, size=d), n)

    def test_version_1_file_rejected(self, param_caches, tmp_path):
        # version 1 stored per-observation value, gradient and Hessian arrays
        import struct

        path = tmp_path / "old.cvc"
        save_cache(param_caches[2], path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(DomainError, match="unsupported cache version 1"):
            load_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.cvc"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(DomainError, match="magic"):
            load_cache(path)

    def test_truncated_payload_rejected(self, poisson_example, example_center,
                                        param_caches, tmp_path):
        path = tmp_path / "param.cvc"
        save_cache(param_caches[2], path)
        clipped = path.read_bytes()[:len(path.read_bytes()) // 2]
        path.write_bytes(clipped)
        with pytest.raises(DomainError, match="truncated"):
            load_cache(path)


class TestExpansionPoint:
    def test_exact_mode_zeroes_the_posterior_gradient(self, poisson_model,
                                                      poisson_example, example_center):
        g = np.sum(poisson_model.grad_theta(example_center, poisson_example), axis=0) \
            + poisson_model.grad_log_prior(example_center)
        np.testing.assert_allclose(g, 0.0, atol=1e-6)

    def test_pilot_mode_lands_near_exact_mode(self, poisson_model, poisson_example,
                                              example_center):
        pilot = select_expansion_point(poisson_model, poisson_example, seed=2)
        assert np.linalg.norm(pilot - example_center) < 0.2

    def test_pilot_is_deterministic(self, poisson_model, poisson_example):
        a = select_expansion_point(poisson_model, poisson_example, seed=2)
        b = select_expansion_point(poisson_model, poisson_example, seed=2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", sorted(MODELS))
    @pytest.mark.parametrize("pilot_size, exact", [(None, False), (37, False), (None, True)])
    def test_gathered_pilot_keeps_the_indexed_newton_bits(self, family, pilot_size, exact):
        model, data, _, _ = random_cache(400, 3, 0, "param", 5, family)
        got = select_expansion_point(model, data, seed=[4, 101], pilot_size=pilot_size,
                                     exact=exact)
        want = indexed_newton(model, data, [4, 101], pilot_size, exact)
        assert got.tobytes() == want.tobytes()


def indexed_newton(model, dataset, seed, pilot_size=None, exact=False, newton_steps=50):
    """select_expansion_point as it was before it gathered its pilot once:
    every Newton step indexes the pilot rows of the full dataset."""
    n, d = dataset.n, model.dim(dataset)
    idx = None
    if not exact:
        if pilot_size is None:
            pilot_size = min(n, int(np.ceil(10.0 * np.sqrt(n))))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        idx = rng.choice(n, size=pilot_size, replace=False)
    theta = np.zeros(d)
    prior_hess = -np.eye(d) / model.prior.sd**2
    for _ in range(newton_steps):
        g = np.sum(model.grad_theta(theta, dataset, idx), axis=0) + model.grad_log_prior(theta)
        H = np.sum(model.hess_theta(theta, dataset, idx), axis=0) + prior_hess
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g, rcond=None)[0]
        new = theta - step
        if not np.all(np.isfinite(new)):
            break
        if np.max(np.abs(new - theta)) < 1e-12:
            theta = new
            break
        theta = new
    return theta


def test_simulated_covariate_law_option():
    ds = simulate_poisson(500, (0.5, 0.5), covariate_law="uniform", seed=1)
    assert ds.X.min() >= -1.0 and ds.X.max() <= 1.0


class TestEvaluationCostScaling:
    """Cheap-total benchmarks: parameter-expanded totals do not grow with n,
    data-expanded totals grow at most linearly in the centroid count.
    Generous bounds keep the checks stable on loaded machines."""

    @staticmethod
    def _time_sum(cache, theta, calls=300):
        import time
        cache.sum_values(theta)  # warm-up
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                cache.sum_values(theta)
            best = min(best, time.perf_counter() - t0)
        return best

    def test_param_expanded_total_independent_of_n(self, poisson_model):
        theta = np.array([1.05, 0.7])
        times = {}
        for n in (1000, 100_000):
            ds = simulate_poisson(n, (1.0, 0.75), seed=6)
            cache = build_param_expanded(poisson_model, ds, theta, order=2)
            times[n] = self._time_sum(cache, theta + 0.01)
        assert times[100_000] < 5.0 * times[1000]

    def test_data_expanded_total_scales_with_centroids_not_n(self, poisson_model):
        theta = np.array([1.05, 0.7])
        ds_small = simulate_poisson(1000, (1.0, 0.75), seed=7)
        ds_large = simulate_poisson(20_000, (1.0, 0.75), seed=8)
        t_small = self._time_sum(build_data_expanded(
            poisson_model, ds_small, kmeans_cluster(ds_small, 75, seed=0), order=2),
            theta, calls=100)
        t_large = self._time_sum(build_data_expanded(
            poisson_model, ds_large, kmeans_cluster(ds_large, 75, seed=0), order=2),
            theta, calls=100)
        assert t_large < 5.0 * t_small
        # tenfold centroid growth may cost at most ~linearly more (with slack)
        t_k15 = self._time_sum(build_data_expanded(
            poisson_model, ds_small, kmeans_cluster(ds_small, 15, seed=0), order=2),
            theta, calls=100)
        t_k150 = self._time_sum(build_data_expanded(
            poisson_model, ds_small, kmeans_cluster(ds_small, 150, seed=0), order=2),
            theta, calls=100)
        assert t_k150 < 40.0 * max(t_k15, 1e-9)
