"""The per-iteration products keep the bits of their `@` and scalar-first forms.

The chain step computes its small products with `ndarray.dot` and puts
arrays before Python scalars, which skips numpy's slower dispatch.  Each
product here is checked, bit for bit, against the form it replaced, on
operands in the layouts the samplers use: the moments in the column-stacked
array `ParamExpandedCache.__post_init__` builds, and gathered design rows.
The state-free quantities the samplers compute a chunk at a time by stacked
`np.matmul` (proposal increments, independence log q, dense-mass momenta)
and the chunked log-uniforms are checked against their per-vector forms
over runs that cross a chunk boundary.  The one product pinned to a new
form is the HMC-ECS gradient of a parameter-expanded cache: its cache and
prior terms are one affine term in theta - theta0, bit for bit, and within
rounding of the unfolded sum they replaced.
"""

from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submcmc import (
    BlockPoissonConfig,
    Dataset,
    GaussianPrior,
    LogisticRegression,
    NormalMeanModel,
    ParamExpandedCache,
    PoissonRegression,
    ProposalConfig,
    build_param_expanded,
    draw_block_poisson,
)
from submcmc.control_variates import bind_differences, difference_total
from submcmc.estimators import block_poisson_value
from submcmc import samplers
from submcmc.samplers import _Proposer, leapfrog

SETTINGS = settings(max_examples=60, deadline=None)
dims = st.integers(1, 8)
seeds = st.integers(0, 2**32 - 1)


def moment_cache(d, rng, order=2):
    """A cache holding random moments in the layout every cache holds."""
    A = rng.standard_normal((d, d))
    return ParamExpandedCache(
        expansion_point=rng.standard_normal(d), order=order, sum_ell=float(rng.normal()),
        sum_grad=rng.standard_normal(d) * 1e3, sum_hess=-(A @ A.T) * 1e3,
        eta0=np.zeros(1), n=1, d=d)


@SETTINGS
@given(d=dims, seed=seeds)
def test_cache_totals_equal_their_matmul_forms(d, seed):
    rng = np.random.default_rng(seed)
    cache = moment_cache(d, rng)
    # the layout the products run on
    assert cache.sum_hess.base is cache.sum_grad.base
    for _ in range(20):
        delta = rng.standard_normal(d) * 10.0 ** rng.integers(-6, 1)
        want = cache.sum_ell + float(cache.sum_grad @ delta)
        want += 0.5 * float(delta @ cache.sum_hess @ delta)
        assert cache._total(delta) == want
        grad = cache._grad_total(delta)
        assert grad.tobytes() == (cache.sum_grad + cache.sum_hess @ delta).tobytes()


@SETTINGS
@given(m=st.integers(1, 300), seed=seeds)
def test_difference_total_equals_its_matmul_form(m, seed):
    rng = np.random.default_rng(seed)
    d, n, q_total = rng.standard_normal(m) * 1e-3, int(rng.integers(m, 10**7)), rng.normal()
    value, variance, centered = difference_total(q_total, d, n)
    total = float(np.add.reduce(d))
    want_centered = d - total / m
    assert value == q_total + n / m * total
    assert variance == n * n / m * (float(want_centered @ want_centered) / m)
    assert centered.tobytes() == want_centered.tobytes()


def spd(d, rng):
    A = rng.standard_normal((d, d))
    return A @ A.T + d * np.eye(d)


# draws that cross a chunk boundary
crossing = st.integers(1, 40).map(lambda k: samplers._CHUNK + k)


@SETTINGS
@given(d=dims, seed=seeds, count=crossing, kind=st.sampled_from(["rwm", "independence"]))
def test_proposer_chunks_equal_their_per_vector_form(d, seed, count, kind):
    rng = np.random.default_rng(seed)
    shape, center, theta = spd(d, rng), rng.standard_normal(d), rng.standard_normal(d)
    propose = _Proposer(ProposalConfig(kind=kind, shape=shape, center=center), d)
    chol, scale = np.linalg.cholesky(shape), np.array(2.38 / np.sqrt(d))
    chol_inv = np.linalg.inv(chol)

    def log_q(v):
        w = chol_inv.dot(v - center) / scale
        return -0.5 * float(w.dot(w))

    assert propose.log_q(theta[None]) == [log_q(theta)]
    ref = np.random.default_rng(seed + 1)
    steps = islice(propose.steps(np.random.default_rng(seed + 1)), count)
    for step, got_log_q in steps:
        inc = chol.dot(ref.standard_normal(d)) * scale
        if kind == "rwm":
            assert step.tobytes() == inc.tobytes() and got_log_q == 0.0
        else:
            assert step.tobytes() == (center + inc).tobytes()
            assert got_log_q == log_q(center + inc)


@SETTINGS
@given(d=dims, seed=seeds, count=crossing, dense=st.booleans())
def test_momentum_chunks_equal_their_per_vector_form(d, seed, count, dense):
    chol_M = np.linalg.cholesky(spd(d, np.random.default_rng(seed))) if dense else None
    ref = np.random.default_rng(seed + 1)
    momenta = chain.from_iterable(samplers._normal_chunks(np.random.default_rng(seed + 1), d,
                                                          chol_M))
    for mom in islice(momenta, count):
        z = ref.standard_normal(d)
        assert mom.tobytes() == (z if chol_M is None else chol_M.dot(z)).tobytes()


@SETTINGS
@given(seed=seeds, count=crossing)
def test_log_uniform_chunks_equal_their_per_draw_form(seed, count):
    ref = np.random.default_rng(seed)
    got = list(islice(samplers._chunked_log_uniforms(np.random.default_rng(seed)), count))
    want = [float(np.log(ref.random())) for _ in range(count)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@SETTINGS
@given(d=dims, seed=seeds, mean=st.sampled_from([0.0, 0.3]))
def test_prior_is_one_ddot_within_rounding_of_its_summed_form(d, seed, mean):
    prior = GaussianPrior(mean=mean, sd=2.5)
    logpdf = prior.bind()[0]
    theta = np.random.default_rng(seed).normal(0.0, 5.0, d)
    z, log_norm = theta - mean, float(np.log(2.5 * np.sqrt(2.0 * np.pi)))
    assert logpdf(theta) == -0.5 / 2.5**2 * float(z.dot(z)) - d * log_norm
    scaled = z / 2.5
    assert logpdf(theta) == pytest.approx(
        float(-0.5 * np.add.reduce(scaled * scaled) - d * log_norm), rel=1e-14)


def glm_case(d, n, rng, family="poisson", order=2, prior=None):
    """Data of a GLM family with d - 1 covariates (the normal mean takes
    d = 1), its model under `prior` (the family's default if None), a cache
    of `order` at a point near the generating one, and the bound
    differences."""
    theta = rng.normal(0.0, 0.3, d)
    X = rng.standard_normal((n, d - 1))
    eta = theta[0] + X @ theta[1:]
    if family == "poisson":
        model = PoissonRegression(prior)
        y = rng.poisson(np.exp(eta)).astype(float)
    elif family == "logistic":
        model = LogisticRegression(prior)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        model = NormalMeanModel() if prior is None else NormalMeanModel(prior.mean, prior.sd)
        y = rng.normal(theta[0], 1.0, n)
    data = Dataset.from_rows(np.column_stack([y, X]))
    cache = build_param_expanded(model, data, theta + rng.normal(0.0, 0.01, d), order=order)
    return model, data, cache, bind_differences(model, cache, data)


def affine_gradient(cache, prior, theta, weighted):
    """grad U as hmc_ecs states it: -(b + A delta + weighted) at delta =
    theta - theta0, A = H_q - I / sd^2 (H_q the summed Hessian at order 2, 0
    below) and b = g_q + (mean - theta0) / sd^2 (g_q 0 at order 0)."""
    d, theta0 = theta.size, cache.expansion_point
    H = cache.sum_hess if cache.order == 2 else np.zeros((d, d))
    g = cache.sum_grad if cache.order >= 1 else np.zeros(d)
    A = H - np.eye(d) / prior.sd**2
    b = g + (prior.mean - theta0) / prior.sd**2
    return -(b + A @ (theta - theta0) + weighted)


@SETTINGS
@given(d=dims, m=st.integers(2, 80), seed=seeds, variance_grad=st.booleans())
def test_glm_gradient_equals_its_matmul_form(d, m, seed, variance_grad):
    rng = np.random.default_rng(seed)
    model, data, cache, differ = glm_case(d, 200, rng)
    idx = rng.integers(0, data.n, m)
    rows = differ.gather(idx)
    theta = cache.expansion_point + rng.normal(0.0, 0.02, d)
    evaluate, grad_potential = differ.bind_potential(variance_grad)(rows)
    U, grad, log_phat = evaluate(theta)

    n, W = data.n, model.design(data, idx)
    delta = theta - cache.expansion_point
    dv, s = model.remainder(data.y[idx], cache.eta0[idx], W @ delta, cache.order, True)
    q_total = cache.sum_ell + float(cache.sum_grad @ delta)
    q_total += 0.5 * float(delta @ cache.sum_hess @ delta)
    value, variance, centered = difference_total(q_total, dv, n)
    weights = n / m - n * n / (m * m) * centered if variance_grad else np.full(m, n / m)
    prior = model.prior
    want = affine_gradient(cache, prior, theta, (weights * s) @ W)
    assert grad.tobytes() == want.tobytes()
    assert log_phat == value - variance / 2.0
    z = theta - prior.mean
    log_prior = (-0.5 / prior.sd**2 * float(z.dot(z))
                 - z.size * float(np.log(prior.sd * np.sqrt(2.0 * np.pi))))
    assert U == -(log_phat + log_prior)
    assert grad_potential(theta).tobytes() == grad.tobytes()


@SETTINGS
@given(family=st.sampled_from(["poisson", "logistic", "normal_mean"]), order=st.integers(0, 2),
       d=dims, m=st.integers(2, 80), seed=seeds, variance_grad=st.booleans(),
       prior_mean=st.sampled_from([0.0, 0.3]))
def test_glm_gradient_is_its_affine_form_near_the_unfolded_sum(family, order, d, m, seed,
                                                                variance_grad, prior_mean):
    # the cache's gradient total and the prior's are one affine term in
    # theta - theta0; the gradient is that form to the bit and the unfolded
    # sum within rounding, while U and log_phat keep their bits
    rng = np.random.default_rng(seed)
    d = 1 if family == "normal_mean" else d
    model, data, cache, differ = glm_case(d, 200, rng, family, order,
                                          GaussianPrior(mean=prior_mean, sd=2.5))
    idx = rng.integers(0, data.n, m)
    theta = cache.expansion_point + rng.normal(0.0, 0.02, d)
    evaluate, grad_potential = differ.bind_potential(variance_grad)(differ.gather(idx))
    U, grad, log_phat = evaluate(theta)

    n, W, prior = data.n, model.design(data, idx), model.prior
    delta = theta - cache.expansion_point
    dv, s = model.remainder(data.y[idx], cache.eta0[idx], W @ delta, order, True)
    value, variance, centered = difference_total(cache._total(delta), dv, n)
    weights = n / m - n * n / (m * m) * centered if variance_grad else np.full(m, n / m)
    weighted = (weights * s) @ W
    unfolded = -(cache._grad_total(delta) + weighted + (prior.mean - theta) / prior.sd**2)
    assert np.max(np.abs(grad - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))
    assert grad.tobytes() == affine_gradient(cache, prior, theta, weighted).tobytes()
    assert grad_potential(theta).tobytes() == grad.tobytes()
    assert log_phat == value - variance / 2.0
    z = theta - prior.mean
    log_prior = (-0.5 / prior.sd**2 * float(z.dot(z))
                 - z.size * float(np.log(prior.sd * np.sqrt(2.0 * np.pi))))
    assert U == -(log_phat + log_prior)


@SETTINGS
@given(seed=seeds)
def test_theta_side_terms_follow_the_theta_bytes(seed):
    # the u-step reuses the terms of the last theta; a theta changed in place
    # must not read them
    rng = np.random.default_rng(seed)
    model, data, cache, differ = glm_case(3, 200, rng)
    rows = [differ.gather(rng.integers(0, data.n, 30)) for _ in range(2)]
    potential_at = differ.bind_potential()
    evaluate = [potential_at(r)[0] for r in rows]
    theta = cache.expansion_point + rng.normal(0.0, 0.02, 3)
    before = theta.copy()
    evaluate[0](theta)
    again = evaluate[1](theta)
    theta += 0.01
    moved = evaluate[1](theta)
    for got, t in ((again, before), (moved, theta)):
        want = bind_differences(model, cache, data).bind_potential()(rows[1])[0](t)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()


@SETTINGS
@given(d=dims, seed=seeds, steps=st.integers(1, 4), dense=st.booleans())
def test_leapfrog_equals_its_scalar_first_form(d, seed, steps, dense):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    mass_inv = np.linalg.inv(A @ A.T + d * np.eye(d)) if dense else None
    H = -(A @ A.T) - np.eye(d)

    def grad_potential(t):
        return -(H @ t)

    theta, mom, eps = rng.standard_normal(d), rng.standard_normal(d), float(rng.uniform(0.01, 0.2))
    got = leapfrog(grad_potential, theta, mom, eps, steps, mass_inv)
    t, p = theta.copy(), mom - 0.5 * eps * grad_potential(theta)
    M_inv = np.eye(d) if mass_inv is None else mass_inv
    for _ in range(1, steps):
        t = t + eps * (M_inv @ p)
        p = p - eps * grad_potential(t)
    t = t + eps * (M_inv @ p)
    p = p - 0.5 * eps * grad_potential(t)
    assert got[0].tobytes() == t.tobytes() and got[1].tobytes() == p.tobytes()


@SETTINGS
@given(seed=seeds, products=st.integers(1, 60), batch=st.integers(1, 6),
       bound=st.floats(-60.0, 5.0))
def test_block_poisson_sums_its_log_factors_in_order(poisson_model, poisson_example,
                                                     param_caches, seed, products,
                                                     batch, bound):
    cache, data = param_caches[1], poisson_example
    cfg = BlockPoissonConfig(n_products=products, batch_size=batch, bound=bound)
    state = draw_block_poisson(data.n, products, batch, np.random.default_rng(seed))
    theta = cache.expansion_point + 0.01
    got = block_poisson_value(poisson_model, cache, data, cfg, theta, state.indices)
    d = poisson_model.remainder(data.y[state.indices], cache.eta0[state.indices],
                                poisson_model.design(data, state.indices)
                                @ (theta - cache.expansion_point), cache.order)
    factors = (data.n / batch * d.reshape(-1, batch).sum(axis=1) - bound) / products
    if np.any(factors == 0.0):
        assert got == (-np.inf, 0)
        return
    log_abs = cache.sum_values(theta) + bound + products
    for term in np.log(np.abs(factors)).tolist():
        log_abs += term
    assert got == (float(log_abs), -1 if np.count_nonzero(factors < 0.0) % 2 else 1)
