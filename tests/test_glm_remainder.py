"""The fused GLM difference path against the generic ell - q path.

Parameter-expanded control variates take d_i = ell_i - q_i from each
model's Taylor remainder in the linear predictor.  These properties pin it
to the generic construction from `loglik`, `grad_theta` and `hess_theta`,
to the cached totals, and to a long-double reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submcmc import (
    Dataset,
    LogisticRegression,
    NormalMeanModel,
    PoissonRegression,
    build_param_expanded,
    differences,
)

MODELS = {"poisson": PoissonRegression, "logistic": LogisticRegression,
          "normal_mean": NormalMeanModel}


def make_problem(name, n, p, seed):
    """A dataset drawn from the model at a random theta0 in [-1, 1]^d."""
    model = MODELS[name]()
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 0 if name == "normal_mean" else p))
    d = model.dim(Dataset(y=np.zeros(n), X=X))
    theta0 = rng.uniform(-1.0, 1.0, size=d)
    eta = model.design(Dataset(y=np.zeros(n), X=X)) @ theta0
    if name == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    elif name == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.standard_normal(n)
    return model, Dataset(y=y, X=X), theta0, rng


def generic_terms(model, ds, theta0, theta, order):
    """d and its gradient rows as ell - q from the model's derivatives, plus
    the magnitudes of the summed terms (the scale of their rounding)."""
    delta = theta - theta0
    ell = model.loglik(theta, ds)
    grad = model.grad_theta(theta, ds)
    q_terms = [model.loglik(theta0, ds)]
    gq_terms = [np.zeros_like(grad)]
    if order >= 1:
        g0 = model.grad_theta(theta0, ds)
        q_terms.append(g0 @ delta)
        gq_terms.append(g0)
    if order >= 2:
        H0d = model.hess_theta(theta0, ds) @ delta
        q_terms.append(0.5 * (H0d @ delta))
        gq_terms.append(H0d)
    d = ell - sum(q_terms)
    g = grad - sum(gq_terms)
    scale = 1.0 + np.abs(ell) + sum(np.abs(t) for t in q_terms)
    gscale = 1.0 + np.abs(grad) + sum(np.abs(t) for t in gq_terms)
    return d, g, scale, gscale


def long_double_remainder(name, model, ds, theta0, theta, order):
    """ell(eta) minus its Taylor polynomial around eta0, in long double;
    log y! is left out of the Poisson ell because it cancels."""
    ld = np.longdouble
    W = model.design(ds).astype(ld)
    y = ds.y.astype(ld)
    eta0 = W @ theta0.astype(ld)
    a = W @ theta.astype(ld) - eta0

    def family(eta):
        if name == "poisson":
            mu = np.exp(eta)
            return y * eta - mu, y - mu, -mu
        if name == "logistic":
            p = 1 / (1 + np.exp(-eta))
            return y * eta - np.logaddexp(ld(0), eta), y - p, -p * (1 - p)
        r = y - eta
        return -r * r / 2, r, -np.ones_like(eta)

    ell, _, _ = family(eta0 + a)
    derivs = family(eta0)
    taylor = derivs[0]
    if order >= 1:
        taylor = taylor + derivs[1] * a
    if order >= 2:
        taylor = taylor + derivs[2] * a * a / 2
    return ell - taylor, np.max(np.abs(ell)) + np.max(np.abs(taylor))


names = st.sampled_from(sorted(MODELS))
problem_args = dict(name=names, n=st.integers(1, 200), p=st.integers(0, 3),
                    seed=st.integers(0, 2**32 - 1), order=st.sampled_from([0, 1, 2]))


@settings(max_examples=60, deadline=None)
@given(step=st.sampled_from([1e-3, 0.1, 1.0]), **problem_args)
def test_fused_differences_match_generic_path(name, n, p, seed, order, step):
    model, ds, theta0, rng = make_problem(name, n, p, seed)
    theta = theta0 + step * rng.uniform(-1.0, 1.0, size=theta0.size)
    cache = build_param_expanded(model, ds, theta0, order=order)
    d, s = differences(model, cache, ds, theta, np.arange(n), grad=True)
    d_ref, g_ref, scale, gscale = generic_terms(model, ds, theta0, theta, order)
    # the generic path carries the rounding of every summed term
    assert np.all(np.abs(d - d_ref) <= 1e-12 * scale)
    grad = s[:, None] * model.design(ds)
    assert np.all(np.abs(grad - g_ref) <= 1e-12 * gscale)


@settings(max_examples=60, deadline=None)
@given(step=st.sampled_from([1e-3, 0.1, 1.0]), **problem_args)
def test_cached_total_is_sum_of_ell_minus_d(name, n, p, seed, order, step):
    model, ds, theta0, rng = make_problem(name, n, p, seed)
    theta = theta0 + step * rng.uniform(-1.0, 1.0, size=theta0.size)
    cache = build_param_expanded(model, ds, theta0, order=order)
    ell = model.loglik(theta, ds)
    d = differences(model, cache, ds, theta, np.arange(n))
    _, _, scale, _ = generic_terms(model, ds, theta0, theta, order)
    total = math.fsum(ell - d)
    assert abs(cache.sum_values(theta) - total) <= 1e-12 * math.fsum(scale + np.abs(d))


@settings(max_examples=60, deadline=None)
@given(**problem_args)
def test_fused_differences_no_less_accurate_near_expansion_point(name, n, p, seed, order):
    model, ds, theta0, rng = make_problem(name, n, p, seed)
    direction = rng.standard_normal(theta0.size)
    theta = theta0 + 1e-4 * direction / np.linalg.norm(direction)
    cache = build_param_expanded(model, ds, theta0, order=order)
    fused = differences(model, cache, ds, theta, np.arange(n))
    generic, _, _, _ = generic_terms(model, ds, theta0, theta, order)
    ref, magnitude = long_double_remainder(name, model, ds, theta0, theta, order)
    fused_err = float(np.max(np.abs(fused - ref)))
    generic_err = float(np.max(np.abs(generic - ref)))
    # below the reference's own rounding the comparison means nothing
    resolution = 8 * float(np.finfo(np.longdouble).eps) * float(1 + magnitude)
    assert fused_err <= generic_err + resolution


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fused_error_at_small_step(name):
    """At |delta| = 1e-4 the generic path loses about eps * |ell| to
    cancellation; the remainder keeps the error orders of magnitude lower."""
    model, ds, theta0, rng = make_problem(name, 200, 1, seed=7)
    theta = theta0 + np.full(theta0.size, 1e-4 / math.sqrt(theta0.size))
    cache = build_param_expanded(model, ds, theta0, order=2)
    fused = differences(model, cache, ds, theta, np.arange(ds.n))
    ref, magnitude = long_double_remainder(name, model, ds, theta0, theta, 2)
    assert float(np.max(np.abs(fused - ref))) <= 1e-17 * (1 + float(magnitude))


def reference_remainder(name, y, eta0, a, order):
    """A frozen copy of each family's remainder as it read before the row
    terms hook: Poisson recomputed exp(eta0) on every call."""
    if name == "poisson":
        mu0 = np.exp(eta0)
        e = np.expm1(a)
        if order == 0:
            return y * a - mu0 * e, y - mu0 * (e + 1.0)
        if order == 1:
            neg_mu0 = -mu0
            return neg_mu0 * (e - a), neg_mu0 * e
        neg_mu0, r1 = -mu0, e - a
        return neg_mu0 * (r1 - 0.5 * a * a), neg_mu0 * r1
    if name == "logistic":
        def softplus(eta):
            return np.logaddexp(0.0, eta)

        def sig(eta):
            out = np.empty_like(eta)
            pos = eta >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
            e = np.exp(eta[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        p0, q0 = sig(eta0), sig(-eta0)
        eta = eta0 + a
        near = np.abs(a) <= 1.0
        pe = p0 * np.expm1(np.clip(a, -1.0, 1.0))
        dsp = np.where(near, np.log1p(pe), softplus(eta) - softplus(eta0))
        dp = np.where(near, q0 * pe / (1.0 + pe), sig(eta) - p0)
        if order == 0:
            return y * a - dsp, y - p0 - dp
        if order == 1:
            return p0 * a - dsp, -dp
        c0 = p0 * q0
        return (p0 + 0.5 * c0 * a) * a - dsp, c0 * a - dp
    if order == 0:
        r = y - eta0
        return (r - 0.5 * a) * a, r - a
    if order == 1:
        return -0.5 * a * a, -a
    return np.zeros_like(a), np.zeros_like(a)


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from([1e-6, 0.1, 1.0, 5.0]), **problem_args)
def test_remainder_from_row_terms_equals_the_reference_bit_for_bit(name, n, p, seed, order,
                                                                     scale):
    # the family states its remainder on row_terms(eta0); the public
    # remainder derived from the two, and the differences taken from the
    # terms gathered rows hold, keep every bit of the copy above
    model, ds, theta0, rng = make_problem(name, n, p, seed)
    eta0 = model.design(ds) @ theta0
    a = scale * rng.standard_normal(n)
    want = reference_remainder(name, ds.y, eta0, a, order)
    for got in (model.remainder(ds.y, eta0, a, order, grad=True),
                model.row_remainder(ds.y, model.row_terms(eta0), a, order, grad=True)):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert model.remainder(ds.y, eta0, a, order).tobytes() == want[0].tobytes()
    theta = theta0 + scale * rng.uniform(-1.0, 1.0, size=theta0.size)
    cache = build_param_expanded(model, ds, theta0, order=order)
    d, s = differences(model, cache, ds, theta, np.arange(n), grad=True)
    ref = reference_remainder(name, ds.y, cache.eta0, model.design(ds) @ (theta - theta0),
                              order)
    assert d.tobytes() == ref[0].tobytes() and s.tobytes() == ref[1].tobytes()


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from([1e-6, 0.1, 1.0, 5.0]), **problem_args)
def test_remainder_without_gradient_is_the_first_item_with_it(name, n, p, seed, order,
                                                               scale):
    # a family skips the gradient term s when it is not asked for; d keeps
    # every bit, whichever branch of the family's remainder a_i falls in
    model, ds, theta0, rng = make_problem(name, n, p, seed)
    terms = model.row_terms(model.design(ds) @ theta0)
    a = scale * rng.standard_normal(n)
    d = model.row_remainder(ds.y, terms, a, order)
    want = model.row_remainder(ds.y, terms, a, order, grad=True)[0]
    assert d.dtype == want.dtype and d.tobytes() == want.tobytes()
