"""Bit identity of the samplers' per-iteration paths against reference loops.

The reference below is the earlier, unbound form of each kernel: one
`standard_normal` and one `random()` call per iteration, the difference
estimate gathered and range-checked per call through the model and cache
methods, and the prior evaluated per call.  The kernels now bind their
constants once per chain and draw proposals, momenta and acceptance
uniforms in chunks, and pmmh with the difference estimator draws and
gathers its subsamples in chunks; every trace column must still come out
equal, bit for bit, for runs that cross two chunk boundaries.  HMC-ECS's
reference follows the stream layout and gradient that `hmc_ecs_run` states:
one stream per kind of draw, u-move uniforms on their own, and a parameter-
expanded gradient whose cache and prior terms are one affine term in
theta - theta0, written here from that formula.
"""

import numpy as np
import pytest

from submcmc import (
    BlockPoissonConfig,
    Dataset,
    DependenceConfig,
    DifferenceConfig,
    ExactControlVariate,
    HmcConfig,
    LogisticRegression,
    NormalMeanModel,
    ParamExpandedCache,
    ProposalConfig,
    build_data_expanded,
    build_param_expanded,
    difference_estimate,
    hmc_ecs_run,
    hmc_run,
    kmeans_cluster,
    mh_run,
    pmmh_run,
    propose_u,
    select_expansion_point,
    subsampled_potential,
)
from submcmc import experiments, samplers
from submcmc.control_variates import bind_differences
from submcmc.samplers import DIVERGENCE_THRESHOLD, _empty_trace, _streams, initial_subsample

# two whole chunks and part of a third
N_ITER = 2 * samplers._CHUNK + 37
FIELDS = ("draws", "accept", "loglik_est", "sign", "u_accept")


# ---------------------------------------------------------------------------
# Reference evaluation: per call, through the model and the cache
# ---------------------------------------------------------------------------

def ref_log_prior(model, theta):
    prior = model.prior
    z = (np.asarray(theta, dtype=float) - prior.mean) / prior.sd
    log_norm = np.log(prior.sd * np.sqrt(2.0 * np.pi))
    return float(-0.5 * (z * z).sum() - z.size * log_norm)


def ref_grad_log_prior(model, theta):
    return -(np.asarray(theta, dtype=float) - model.prior.mean) / model.prior.sd**2


def ref_check(idx, n):
    idx = np.atleast_1d(np.asarray(idx))
    assert idx.size == 0 or (idx.min() >= 0 and idx.max() < n)
    return idx


def ref_differences(model, cache, dataset, theta, idx, grad=False):
    idx = ref_check(idx, dataset.n)
    if isinstance(cache, ParamExpandedCache):
        y, W, eta0 = dataset.y[idx], model.design(dataset, idx), cache.eta0[idx]
        a = W @ (np.asarray(theta, dtype=float) - cache.expansion_point)
        return model.remainder(y, eta0, a, cache.order, grad)
    d = model.loglik(theta, dataset, idx) - cache.values_at(theta, idx)
    if not grad:
        return d
    return d, model.grad_theta(theta, dataset, idx) - cache.grads_at(theta, idx)


def ref_sum_values(cache, theta):
    if not isinstance(cache, ParamExpandedCache):
        return cache.sum_values(theta)
    total = cache.sum_ell
    if cache.order >= 1:
        delta = np.asarray(theta, dtype=float) - cache.expansion_point
        total += float(cache.sum_grad @ delta)
        if cache.order >= 2:
            total += 0.5 * float(delta @ cache.sum_hess @ delta)
    return total


def ref_grad_sum(model, dataset, cache, theta):
    if not isinstance(cache, ParamExpandedCache):
        # an exact cache: the full-data gradient sum
        return np.sum(model.grad_theta(theta, dataset), axis=0)
    if cache.order == 0:
        return np.zeros(cache.d)
    out = cache.sum_grad.copy()
    if cache.order >= 2:
        out += cache.sum_hess @ (np.asarray(theta, dtype=float) - cache.expansion_point)
    return out


def ref_difference_total(cache, theta, d, n):
    m = d.size
    total = float(d.sum())
    centered = d - total / m
    value = ref_sum_values(cache, theta) + n / m * total
    sample_variance = n * n / m * (float(centered @ centered) / m)
    return value, sample_variance, centered


def ref_block_poisson(model, cache, dataset, theta, cfg, state):
    lam = cfg.n_products
    d = ref_differences(model, cache, dataset, theta, state.indices)
    dhat = dataset.n / cfg.batch_size * d.reshape(-1, cfg.batch_size).sum(axis=1)
    factors = (dhat - cfg.bound) / lam
    if np.any(factors == 0.0):
        return -np.inf, 0
    log_abs = ref_sum_values(cache, theta) + cfg.bound + lam
    for term in np.log(np.abs(factors)).tolist():
        log_abs += term
    sign = -1 if np.count_nonzero(factors < 0.0) % 2 else 1
    return float(log_abs), sign


# ---------------------------------------------------------------------------
# Reference kernels: one draw call per iteration
# ---------------------------------------------------------------------------

class RefProposer:
    def __init__(self, cfg, d, theta0):
        self.cfg = cfg
        self.scale = cfg.step_scale if cfg.step_scale is not None else 2.38 / np.sqrt(d)
        shape = np.asarray(cfg.shape, dtype=float) if cfg.shape is not None else np.eye(d)
        self.chol = np.linalg.cholesky(shape)
        self.chol_inv = np.linalg.inv(self.chol)
        self.center = (np.asarray(cfg.center, dtype=float)
                       if cfg.center is not None else theta0.copy())

    def __call__(self, theta, rng):
        z = rng.standard_normal(theta.size)
        if self.cfg.kind == "rwm":
            return theta + self.scale * (self.chol @ z), 0.0
        prop = self.center + self.scale * (self.chol @ z)
        return prop, self._logq(theta) - self._logq(prop)

    def _logq(self, v):
        w = self.chol_inv @ (v - self.center) / self.scale
        return -0.5 * float(w @ w)


def ref_mh(model, dataset, proposal, theta0, n_iter, seed):
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.size
    rng_prop, rng_accept, _ = _streams(seed)
    propose = RefProposer(proposal, d, theta)

    def log_post(t):
        return model.loglik_sum(t, dataset) + ref_log_prior(model, t)

    lp = log_post(theta)
    trace = _empty_trace(n_iter, d)
    for i in range(n_iter):
        prop, corr = propose(theta, rng_prop)
        u = rng_accept.random()
        lp_prop = log_post(prop)
        if np.log(u) < lp_prop - lp + corr:
            theta, lp = prop, lp_prop
            trace.accept[i] = True
        trace.draws[i] = theta
        # the full-data log-likelihood at the current draw, as every kernel records
        trace.loglik_est[i] = model.loglik_sum(theta, dataset)
    return trace


def ref_pmmh(model, dataset, cache, est_cfg, proposal, dependence, theta0, n_iter, seed):
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.size
    rng_prop, rng_accept, rng_sub = _streams(seed)
    propose = RefProposer(proposal, d, theta)

    def evaluate(t, state):
        if isinstance(est_cfg, DifferenceConfig):
            dv = ref_differences(model, cache, dataset, t, state.indices)
            value, svar, _ = ref_difference_total(cache, t, dv, dataset.n)
            # the bias-corrected estimate, which the chain accepts under
            return value - svar / 2.0, 1
        return ref_block_poisson(model, cache, dataset, t, est_cfg, state)

    state = initial_subsample(est_cfg, dependence, dataset.n, rng_sub)
    log_est, sign = evaluate(theta, state)
    log_target = log_est + ref_log_prior(model, theta)
    trace = _empty_trace(n_iter, d)
    for i in range(n_iter):
        state_prop = propose_u(state, dependence, rng_sub)
        theta_prop, corr = propose(theta, rng_prop)
        u = rng_accept.random()
        log_est_p, sign_p = evaluate(theta_prop, state_prop)
        log_target_p = log_est_p + ref_log_prior(model, theta_prop)
        if sign_p == 0 or not np.isfinite(log_target_p):
            state.cursor = state_prop.cursor
        elif np.log(u) < log_target_p - log_target + corr:
            theta, state = theta_prop, state_prop
            log_target, log_est, sign = log_target_p, log_est_p, sign_p
            trace.accept[i] = True
        else:
            state.cursor = state_prop.cursor
        trace.draws[i] = theta
        trace.loglik_est[i] = log_est
        trace.sign[i] = sign
    return trace


def ref_leapfrog(grad_potential, theta, mom, step_size, n_steps, mass_inv, evaluate, grad0):
    theta = theta.copy()
    mom = mom - 0.5 * step_size * grad0
    for _ in range(1, n_steps):
        theta = theta + step_size * (mass_inv @ mom)
        mom = mom - step_size * grad_potential(theta)
    theta = theta + step_size * (mass_inv @ mom)
    U, g, loglik = evaluate(theta)
    return theta, mom - 0.5 * step_size * g, (U, g, loglik)


def ref_hmc_loop(grad_potential, evaluate, cfg, theta0, n_iter, seed, d, u_step=None):
    rng_prop, rng_accept = _streams(seed, 2)
    M = np.asarray(cfg.mass, dtype=float) if cfg.mass is not None else np.eye(d)
    chol_M, M_inv = np.linalg.cholesky(M), np.linalg.inv(M)
    theta = theta0.copy()
    U, g, loglik = evaluate(theta)
    trace = _empty_trace(n_iter, d)
    for i in range(n_iter):
        if u_step is not None:
            grad_potential, evaluate, trace.u_accept[i], U, g, loglik = u_step(
                theta, U, g, loglik)
        mom = chol_M @ rng_prop.standard_normal(d)
        u = rng_accept.random()
        K = 0.5 * float(mom @ (M_inv @ mom))
        with np.errstate(over="ignore", invalid="ignore"):
            theta_prop, mom_prop, (U_prop, g_prop, loglik_prop) = ref_leapfrog(
                grad_potential, theta, mom, cfg.step_size, cfg.n_steps, M_inv, evaluate, g)
            K_prop = 0.5 * float(mom_prop @ (M_inv @ mom_prop))
        dH = (U_prop + K_prop) - (U + K)
        if not np.isfinite(dH) or abs(dH) > DIVERGENCE_THRESHOLD:
            pass
        elif np.log(u) < -dH:
            theta, U, g, loglik = theta_prop, U_prop, g_prop, loglik_prop
            trace.accept[i] = True
        trace.draws[i] = theta
        trace.loglik_est[i] = loglik
    return trace


def ref_hmc(model, dataset, cfg, theta0, n_iter, seed):
    theta = np.asarray(theta0, dtype=float).copy()

    def grad_potential(t):
        return -(np.sum(model.grad_theta(t, dataset), axis=0) + ref_grad_log_prior(model, t))

    def evaluate(t):
        loglik = model.loglik_sum(t, dataset)
        return -(loglik + ref_log_prior(model, t)), grad_potential(t), loglik

    return ref_hmc_loop(grad_potential, evaluate, cfg, theta, n_iter, seed, theta.size)


def ref_potential(model, cache, dataset, theta, idx, include_variance_grad):
    theta = np.asarray(theta, dtype=float)
    n, m = dataset.n, idx.size
    d_vals, s = ref_differences(model, cache, dataset, theta, idx, grad=True)
    value, svar, centered = ref_difference_total(cache, theta, d_vals, n)
    weights = (n / m - n * n / (m * m) * centered if include_variance_grad
               else np.full(m, n / m))
    log_phat = value - svar / 2.0
    U = -(log_phat + ref_log_prior(model, theta))
    if not isinstance(cache, ParamExpandedCache):
        grad_log_phat = ref_grad_sum(model, dataset, cache, theta) + weights @ s
        return U, -(grad_log_phat + ref_grad_log_prior(model, theta)), log_phat
    # the cache's gradient total g_q + H_q delta and the prior's gradient as
    # one affine term: grad U = -(b + A delta + sum_k w_k s_k w_k) with
    # A = H_q - I / sd^2 and b = g_q + (mean - theta0) / sd^2
    prior, d, theta0 = model.prior, theta.size, cache.expansion_point
    H = cache.sum_hess if cache.order == 2 else np.zeros((d, d))
    g = cache.sum_grad if cache.order >= 1 else np.zeros(d)
    A = H - np.eye(d) / prior.sd**2
    b = g + (prior.mean - theta0) / prior.sd**2
    weighted = (weights * s) @ model.design(dataset, idx)
    return U, -(b + A @ (theta - theta0) + weighted), log_phat


def ref_hmc_ecs(model, dataset, cache, cfg, m, theta0, n_iter, seed, dependence,
                include_variance_grad=True):
    theta_arr = np.asarray(theta0, dtype=float)
    # one stream per kind of draw: momenta, acceptance, subsample indices,
    # the initial subsample and the u-move uniforms
    _, _, rng_sub, init_rng, rng_u = _streams(seed, 5)
    state = initial_subsample(DifferenceConfig(m), dependence, dataset.n, init_rng)

    def potential_at(idx):
        def evaluate(t):
            return ref_potential(model, cache, dataset, t, idx, include_variance_grad)

        def grad_potential(t):
            return evaluate(t)[1]
        return grad_potential, evaluate

    box = {"state": state, "fns": potential_at(state.indices)}

    def u_step(theta, U_cur, g_cur, log_cur):
        cur = box["state"]
        prop = propose_u(cur, dependence, rng_sub)
        u = rng_u.random()
        U_prop, g_prop, log_prop = ref_potential(model, cache, dataset, theta, prop.indices,
                                                 include_variance_grad)
        if np.isfinite(log_prop) and np.log(u) < log_prop - log_cur:
            box["state"], box["fns"] = prop, potential_at(prop.indices)
            return *box["fns"], True, U_prop, g_prop, log_prop
        cur.cursor = prop.cursor
        return *box["fns"], False, U_cur, g_cur, log_cur

    return ref_hmc_loop(*box["fns"], cfg, theta_arr, n_iter, seed, theta_arr.size,
                        u_step=u_step)


# ---------------------------------------------------------------------------
# The comparisons
# ---------------------------------------------------------------------------

def assert_same_trace(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # both branches of the acceptance step were taken
    assert 0 < got.accept.sum() < got.n_iter


def proposal_of(kind, center):
    if kind == "rwm":
        return ProposalConfig(step_scale=0.02)
    return ProposalConfig(kind="independence", step_scale=0.03, center=center)


DEPENDENCE = {
    "srs": DependenceConfig(),
    "cpm": DependenceConfig(kind="cpm", ar_coef=0.95),
    "bpm": DependenceConfig(kind="bpm", n_blocks=5),
}


@pytest.mark.parametrize("kind", ["rwm", "independence"])
@pytest.mark.parametrize("dep", ["srs", "cpm", "bpm"])
def test_pmmh_difference_estimator(poisson_model, poisson_example, example_center,
                                   param_caches, dep, kind):
    args = (poisson_model, poisson_example, param_caches[2], DifferenceConfig(m=30),
            proposal_of(kind, example_center), DEPENDENCE[dep], example_center, N_ITER, 41)
    assert_same_trace(pmmh_run(*args), ref_pmmh(*args))


@pytest.mark.parametrize("dep", ["srs", "bpm4"])
def test_pmmh_subsample_chunk_refills(monkeypatch, poisson_model, poisson_example,
                                      example_center, param_caches, dep):
    # chunks of 510 indices: SRS proposals of 30 use one up in 17 iterations,
    # BPM refreshes of 8, 8, 7 and 7 in 68
    monkeypatch.setattr(samplers, "_INDEX_CHUNK", 512)
    refills = []
    real = samplers._IndexChunks._refill

    def counting(self, size):
        refills.append(size)
        return real(self, size)

    monkeypatch.setattr(samplers._IndexChunks, "_refill", counting)
    dependence = DEPENDENCE["srs"] if dep == "srs" else DependenceConfig(kind="bpm", n_blocks=4)
    args = (poisson_model, poisson_example, param_caches[2], DifferenceConfig(m=30),
            ProposalConfig(step_scale=0.02), dependence, example_center, N_ITER, 47)
    assert_same_trace(pmmh_run(*args), ref_pmmh(*args))
    assert len(refills) >= 3 and set(refills) == {510}


def test_pmmh_block_poisson_bpm(poisson_model, poisson_example, example_center, param_caches):
    # order 1 leaves differences large enough for negative signs
    cfg = BlockPoissonConfig(n_products=4, batch_size=5, bound=-4.0)
    args = (poisson_model, poisson_example, param_caches[1], cfg,
            ProposalConfig(step_scale=0.02), DependenceConfig(kind="bpm", n_blocks=2),
            example_center, N_ITER, 42)
    got = pmmh_run(*args)
    assert_same_trace(got, ref_pmmh(*args))
    assert (got.sign == -1).any()


def test_pmmh_block_poisson_independent(poisson_model, poisson_example, example_center,
                                        param_caches):
    # each iteration redraws all 20 products' Pois(1) counts and indices
    cfg = BlockPoissonConfig(n_products=20, batch_size=5, bound=-20.0)
    args = (poisson_model, poisson_example, param_caches[1], cfg,
            ProposalConfig(step_scale=0.02), DependenceConfig(), example_center, N_ITER, 42)
    got = pmmh_run(*args)
    assert_same_trace(got, ref_pmmh(*args))
    assert (got.sign == -1).any()


def test_pmmh_data_expanded_cache(poisson_model, poisson_example, example_center):
    clusters = kmeans_cluster(poisson_example, 12, seed=3)
    cache = build_data_expanded(poisson_model, poisson_example, clusters, order=2)
    args = (poisson_model, poisson_example, cache, DifferenceConfig(m=30),
            ProposalConfig(step_scale=0.02), DependenceConfig(), example_center, N_ITER, 43)
    assert_same_trace(pmmh_run(*args), ref_pmmh(*args))


@pytest.mark.parametrize("kind", ["rwm", "independence"])
def test_mh(poisson_model, poisson_example, example_center, kind):
    args = (poisson_model, poisson_example, proposal_of(kind, example_center),
            example_center, N_ITER, 44)
    assert_same_trace(mh_run(*args), ref_mh(*args))


@pytest.mark.parametrize("mass", [None, np.diag([2.5, 0.4]),
                                  np.array([[1.6, 0.3], [0.3, 0.7]])],
                         ids=["identity", "diagonal", "dense"])
def test_hmc(poisson_model, poisson_example, example_center, mass):
    args = (poisson_model, poisson_example, HmcConfig(step_size=0.006, n_steps=3, mass=mass),
            example_center, N_ITER, 45)
    assert_same_trace(hmc_run(*args), ref_hmc(*args))


# an order-2 cache rejects about one u-move in 1000; at this seed each
# order-2 case rejects at least one.  The order-0 and order-1 cases reject
# hundreds (2026, 160 and 331 of 2085 under BPM4, BPM4 and independent
# refresh), so the u-step's rejection branch does not rest on a rare event
ECS_SEED = 47


def test_hmc_ecs_bpm(poisson_model, poisson_example, example_center, param_caches):
    cfg = HmcConfig(step_size=0.005, n_steps=3)
    dep = DependenceConfig(kind="bpm", n_blocks=4)
    got = hmc_ecs_run(poisson_model, poisson_example, param_caches[2], cfg, 40,
                      example_center, N_ITER, ECS_SEED, dependence=dep)
    want = ref_hmc_ecs(poisson_model, poisson_example, param_caches[2], cfg, 40,
                       example_center, N_ITER, ECS_SEED, dep)
    assert_same_trace(got, want)
    assert 0 < got.u_accept.sum() < got.n_iter


def centred_caches(model, data):
    """(model, data, caches by order, centre): the order-2 cache at the
    full-data mode, and the order-0 and order-1 caches built there."""
    cache = experiments._centred_cache(model, data, select_expansion_point(model, data),
                                       None, {})
    center = cache.expansion_point
    caches = {order: build_param_expanded(model, data, center, order=order)
              for order in (0, 1)}
    return model, data, {**caches, 2: cache}, center


@pytest.fixture(scope="module")
def family_cases(poisson_model, poisson_example, example_center, param_caches):
    """Each GLM family with caches of every order at its full-data mode.
    Logistic takes binary responses on the example's covariate; near the
    mode every |a_i| <= 1, the remainder's cancellation-free branch.  The
    normal mean takes 1000 draws of N(0.3, 1)."""
    y = np.random.default_rng(48).normal(0.3, 1.0, size=1000)
    return {
        "poisson": (poisson_model, poisson_example, param_caches, example_center),
        "logistic": centred_caches(LogisticRegression(), Dataset(
            y=(poisson_example.y > 2).astype(float), X=poisson_example.X)),
        "normal_mean": centred_caches(NormalMeanModel(), Dataset(y=y, X=np.empty((1000, 0)))),
    }


@pytest.fixture(scope="module")
def logistic_case(family_cases):
    model, data, caches, center = family_cases["logistic"]
    return model, data, caches[2], center


# per family, a random-walk step and a subsample size that take both
# branches of the acceptance step at every order
FAMILY_PMMH = {"logistic": (0.02, 100), "normal_mean": (0.03, 30)}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("family", list(FAMILY_PMMH))
def test_pmmh_difference_estimator_families(family_cases, family, order):
    model, data, caches, center = family_cases[family]
    step, m = FAMILY_PMMH[family]
    args = (model, data, caches[order], DifferenceConfig(m=m), ProposalConfig(step_scale=step),
            DependenceConfig(), center, N_ITER, 48)
    assert_same_trace(pmmh_run(*args), ref_pmmh(*args))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("family", ["poisson", "logistic", "normal_mean"])
def test_potential_log_phat_is_the_bound_estimate(family_cases, family, order):
    # pmmh's bound log estimate and the HMC-ECS potential's log_phat are
    # computed apart; they agree to the bit, and with the reference
    model, data, caches, center = family_cases[family]
    cache = caches[order]
    differ = bind_differences(model, cache, data)
    rng = np.random.default_rng(49)
    for _ in range(20):
        idx = rng.integers(0, data.n, size=int(rng.integers(1, 60)))
        theta = center + rng.normal(0.0, 0.05, size=center.size)
        _, _, log_phat = subsampled_potential(model, cache, data, theta, idx)
        estimate = differ.log_estimate(theta, differ.gather(idx))
        public = difference_estimate(model, cache, data, theta, idx)
        value, svar, _ = ref_difference_total(
            cache, theta, ref_differences(model, cache, data, theta, idx), data.n)
        assert log_phat == estimate == value - svar / 2.0
        assert (public.value, public.sample_variance) == (value, svar)


BPM4 = DependenceConfig(kind="bpm", n_blocks=4)
# the cases test_hmc_ecs_bpm (order 2, variance gradient, BPM) leaves out:
# (cache, include_variance_grad, dependence, step size)
ECS_CASES = {
    "order0": (0, True, BPM4, 0.005),
    "order1": (1, True, BPM4, 0.005),
    "order1_independent": (1, True, DependenceConfig(), 0.005),
    "no_variance_grad": (2, False, BPM4, 0.005),
    "independent": (2, True, DependenceConfig(), 0.005),
    "exact": ("exact", True, BPM4, 0.005),
    "logistic": ("logistic", True, BPM4, 0.02),
}


@pytest.mark.parametrize("case", list(ECS_CASES))
def test_hmc_ecs_variants(poisson_model, poisson_example, example_center, param_caches,
                          logistic_case, case):
    which, include_variance_grad, dependence, step = ECS_CASES[case]
    model, data, center = poisson_model, poisson_example, example_center
    if which == "exact":
        cache = ExactControlVariate(model, data)
    elif which == "logistic":
        model, data, cache, center = logistic_case
    else:
        cache = param_caches[which]
    cfg = HmcConfig(step_size=step, n_steps=3)
    got = hmc_ecs_run(model, data, cache, cfg, 40, center, N_ITER, ECS_SEED,
                      dependence=dependence, include_variance_grad=include_variance_grad)
    want = ref_hmc_ecs(model, data, cache, cfg, 40, center, N_ITER, ECS_SEED, dependence,
                       include_variance_grad)
    assert_same_trace(got, want)
    if which == "exact":
        # the estimate has no error, so every subsample refresh is accepted
        assert got.u_accept.all()
    else:
        assert 0 < got.u_accept.sum() < got.n_iter
