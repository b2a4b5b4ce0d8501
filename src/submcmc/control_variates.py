"""Cheap per-observation approximations q_i(theta) and their precomputation.

Two families: Taylor expansion in parameter space around a fixed expansion
point (cheap total: O(d^2) per theta, independent of n) and Taylor
expansion in data space around cluster centroids (cheap total: O(K) per
theta).  Both support per-index evaluation for sampled observations, which
is what the difference estimator needs.  Their per-iteration products use
`ndarray.dot`, never `@`, with arrays before scalars (see `samplers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheBuildError, DomainError
from .models import Dataset, GlmModel, ModelSpec


def _first_bad_index(arr: np.ndarray) -> int | None:
    ok = np.isfinite(arr).all(axis=1)
    return None if ok.all() else int(np.argmin(ok))


@dataclass
class ParamExpandedCache:
    """Taylor-in-theta control variates anchored at `expansion_point`.

    The model has GLM form, so with a_i = w_i'(theta - theta0)

        q_i(theta) = ell(y_i, eta0_i) + ell'(eta0_i) a_i + ell''(eta0_i) a_i^2 / 2

    truncated at `order`, which truncates evaluation only: every order holds
    the moments of the one order-2 set-up pass (`GlmModel.taylor_sums`).
    The cache keeps one float per observation, eta0_i = w_i'theta0: 8n
    bytes.  The summed terms make sum_values O(d^2) per theta; per-index
    evaluation reads y_i and w_i from the dataset.
    """

    expansion_point: np.ndarray
    order: int
    sum_ell: float
    sum_grad: np.ndarray
    sum_hess: np.ndarray
    eta0: np.ndarray
    n: int
    d: int
    _model: GlmModel = field(default=None, repr=False)
    _dataset: Dataset = field(default=None, repr=False)

    def __post_init__(self):
        # the layout taylor_sums builds, whatever came in: products on
        # contiguous copies round differently
        moments = np.column_stack([self.sum_grad, self.sum_hess])
        self.sum_grad, self.sum_hess = moments[:, 0], moments[:, 1:]

    def __setstate__(self, state):
        # unpickling makes each moment array contiguous on its own
        self.__dict__.update(state)
        self.__post_init__()

    def _expansion_terms(self, theta, idx):
        """y, eta0, the design rows, a and (ell', ell'') at eta0 (None above
        the order) at the range-checked indices, gathered here alone."""
        idx = check_indices(idx, self.n)
        y, eta0, W = self._dataset.y[idx], self.eta0[idx], self._model.design(self._dataset, idx)
        a = W @ (np.asarray(theta, dtype=float) - self.expansion_point)
        d1 = self._model.ell_d1(y, eta0) if self.order >= 1 else None
        d2 = self._model.ell_d2(y, eta0) if self.order >= 2 else None
        return y, eta0, W, a, d1, d2

    def values_at(self, theta, idx) -> np.ndarray:
        y, eta0, _, a, d1, d2 = self._expansion_terms(theta, idx)
        q = self._model.ell(y, eta0)
        if self.order >= 1:
            q = q + d1 * a
            if self.order >= 2:
                q = q + 0.5 * d2 * a * a
        return q

    def sum_values(self, theta) -> float:
        return self._total(np.asarray(theta, dtype=float) - self.expansion_point)

    def _total(self, delta) -> float:
        """sum_i q_i at theta = expansion_point + delta."""
        total = self.sum_ell
        if self.order >= 1:
            total += float(self.sum_grad.dot(delta))
            if self.order >= 2:
                total += 0.5 * float(delta.dot(self.sum_hess).dot(delta))
        return total

    # theta-gradients of the q_i
    def grads_at(self, theta, idx) -> np.ndarray:
        y, _, W, a, d1, d2 = self._expansion_terms(theta, idx)
        if self.order == 0:
            return np.zeros((y.size, self.d))
        slope = d1 + d2 * a if self.order >= 2 else d1
        return slope[:, None] * W

    def grad_sum(self, theta) -> np.ndarray:
        return self._grad_total(np.asarray(theta, dtype=float) - self.expansion_point)

    def _grad_total(self, delta) -> np.ndarray:
        """sum_i grad q_i at theta = expansion_point + delta."""
        if self.order == 0:
            return np.zeros(self.d)
        if self.order == 1:
            return self.sum_grad.copy()
        return self.sum_grad + self.sum_hess.dot(delta)


def build_param_expanded(model: ModelSpec, dataset: Dataset, expansion_point,
                         order: int = 2, checked: bool = False) -> ParamExpandedCache:
    """One blocked full pass over the data; afterwards sum_values() is
    O(d^2) per theta and the cache holds 8n bytes per dataset.  `checked`
    says the responses were validated already, so the pass skips that."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    if not isinstance(model, GlmModel):
        raise DomainError(
            f"parameter-expanded control variates need a model of GLM form "
            f"(log-likelihood a function of w_i'theta); {type(model).__name__} is not")
    t0 = np.asarray(expansion_point, dtype=float)
    eta0, sum_ell, sum_grad, sum_hess = model.taylor_sums(t0, dataset, checked=checked)
    return ParamExpandedCache(
        expansion_point=t0, order=order, sum_ell=sum_ell, sum_grad=sum_grad,
        sum_hess=sum_hess, eta0=eta0, n=dataset.n, d=t0.size,
        _model=model, _dataset=dataset,
    )


@dataclass
class ClusteringResult:
    """k-means output: centroids in original scale, per-point assignment,
    the per-coordinate scales used for distances, the within-cluster
    sum of squares recorded after every assignment step, and whether the
    assignment settled before max_iter steps."""

    centroids: np.ndarray
    assignment: np.ndarray
    scales: np.ndarray
    objective_path: list[float]
    converged: bool


# rows per block of the k-means assignment step, whose (rows, K, dz)
# temporary then takes 8 K dz kB per 1024 rows: 14.7 MB at K = 75, dz = 6
_KMEANS_BLOCK = 4096


def kmeans_cluster(dataset: Dataset, n_clusters: int, seed: int = 0,
                   max_iter: int = 100) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding on standardized (y, x) rows.

    Each coordinate is scaled to unit sample variance before distance
    computation so the count coordinate cannot dominate; centroids are
    mapped back to the original scale.  Deterministic for a fixed seed;
    ties in the nearest-centroid assignment go to the lowest centroid
    index; an empty cluster is re-seeded at the point farthest from its
    assigned centroid.
    """
    Z = dataset.points()
    n = Z.shape[0]
    if not 1 <= n_clusters <= n:
        raise DomainError(f"need 1 <= n_clusters <= n, got K={n_clusters}, n={n}")
    scales = np.std(Z, axis=0, ddof=1) if n > 1 else np.ones(Z.shape[1])
    scales = np.where(scales > 0, scales, 1.0)
    S = Z / scales

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    centers = np.empty((n_clusters, S.shape[1]))
    centers[0] = S[rng.integers(n)]
    d2 = np.sum((S - centers[0]) ** 2, axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            pick = rng.choice(n, p=d2 / total)
        else:
            pick = rng.integers(n)
        centers[j] = S[pick]
        d2 = np.minimum(d2, np.sum((S - centers[j]) ** 2, axis=1))

    assignment = np.full(n, -1, dtype=np.intp)
    new_assignment, point_d2 = np.empty(n, dtype=np.intp), np.empty(n)
    objective_path: list[float] = []
    converged = False
    for _ in range(max_iter):
        # each row's distances sum as they would over all rows at once
        for lo in range(0, n, _KMEANS_BLOCK):
            rows = slice(lo, lo + _KMEANS_BLOCK)
            dist2 = np.sum((S[rows, None, :] - centers[None, :, :]) ** 2, axis=2)
            nearest = new_assignment[rows] = np.argmin(dist2, axis=1)
            point_d2[rows] = dist2[np.arange(nearest.size), nearest]
        objective_path.append(float(point_d2.sum()))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment, new_assignment = new_assignment, assignment
        for j in range(n_clusters):
            member = assignment == j
            if member.any():
                centers[j] = S[member].mean(axis=0)
            else:
                centers[j] = S[np.argmax(point_d2)]
                point_d2[np.argmax(point_d2)] = 0.0
    return ClusteringResult(
        centroids=centers * scales,
        assignment=assignment,
        scales=scales,
        objective_path=objective_path,
        converged=converged,
    )


@dataclass
class DataExpandedCache:
    """Taylor-in-data-space control variates around cluster centroids.

    Stores per-centroid aggregates (member count, summed deviations,
    summed deviation outer products) so that sum_values() costs
    O(K * dim(z)^2) per theta; per-observation deviations are kept for
    sampled-index evaluation.
    """

    centroids: np.ndarray
    assignment: np.ndarray
    dev: np.ndarray
    counts: np.ndarray
    sum_dev: np.ndarray
    sum_outer: np.ndarray
    order: int
    n: int
    n_clusters: int
    _model: ModelSpec = field(default=None, repr=False)

    # values_at's last centroid evaluation and the bytes of its theta: an
    # estimate asks for q_i and then sum_i q_i at one theta, and the sum reuses it
    _last: tuple = field(default=(None, None), repr=False, compare=False)

    def _centroid_eval(self, theta):
        base = self._model.loglik_at(theta, self.centroids)
        g = self._model.grad_data(theta, self.centroids) if self.order >= 1 else None
        H = self._model.hess_data(theta, self.centroids) if self.order >= 2 else None
        return base, g, H

    def values_at(self, theta, idx) -> np.ndarray:
        idx = check_indices(idx, self.n)
        theta = np.asarray(theta, dtype=float)
        at = self._centroid_eval(theta)
        self._last = theta.tobytes(), at
        return self._values(at, idx)

    def sum_values(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        key, at = self._last
        return self._total(at if key == theta.tobytes() else self._centroid_eval(theta))

    def _values(self, at, idx) -> np.ndarray:
        base, g, H = at
        c = self.assignment[idx]
        q = base[c].copy()
        if self.order >= 1:
            dv = self.dev[idx]
            q += np.einsum("ki,ki->k", dv, g[c])
            if self.order >= 2:
                q += 0.5 * np.einsum("ki,kij,kj->k", dv, H[c], dv)
        return q

    def _total(self, at) -> float:
        base, g, H = at
        total = float(self.counts @ base)
        if self.order >= 1:
            total += float(np.einsum("ci,ci->", self.sum_dev, g))
            if self.order >= 2:
                total += 0.5 * float(np.einsum("cij,cij->", self.sum_outer, H))
        return total

    _NO_GRADIENTS = ("theta-gradients of data-expanded control variates need mixed "
                     "theta/data derivatives; use a parameter-expanded or exact cache")

    def grads_at(self, theta, idx):
        raise NotImplementedError(self._NO_GRADIENTS)

    def grad_sum(self, theta):
        raise NotImplementedError(self._NO_GRADIENTS)


def build_data_expanded(model: ModelSpec, dataset: Dataset, clustering,
                        order: int = 2) -> DataExpandedCache:
    """Aggregate deviation moments per centroid; `clustering` is a
    ClusteringResult or a (centroids, assignment) pair."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    if isinstance(clustering, ClusteringResult):
        centroids, assignment = clustering.centroids, clustering.assignment
    else:
        centroids, assignment = clustering
    centroids = np.asarray(centroids, dtype=float)
    assignment = np.asarray(assignment, dtype=int)
    Z = dataset.points()
    n, dz = Z.shape
    K = centroids.shape[0]
    dev = Z - centroids[assignment]
    bad = _first_bad_index(dev)
    if bad is not None:
        raise CacheBuildError(f"non-finite deviation at observation {bad}")
    # bincount adds each cluster's terms in input order from 0, as np.add.at
    # does, so the sums keep their bits; the outer products are symmetric
    counts = np.bincount(assignment, minlength=K).astype(float)
    sum_dev = np.empty((K, dz))
    sum_outer = np.empty((K, dz, dz))
    for i in range(dz):
        sum_dev[:, i] = np.bincount(assignment, weights=dev[:, i], minlength=K)
        for j in range(i, dz):
            sum_outer[:, i, j] = sum_outer[:, j, i] = np.bincount(
                assignment, weights=dev[:, i] * dev[:, j], minlength=K)
    return DataExpandedCache(
        centroids=centroids,
        assignment=assignment,
        dev=dev,
        counts=counts,
        sum_dev=sum_dev,
        sum_outer=sum_outer,
        order=order,
        n=n,
        n_clusters=K,
        _model=model,
    )


class ExactControlVariate:
    """q_i(theta) = ell_i(theta) exactly: zero-variance differences.

    Defeats the purpose of subsampling (every evaluation is O(n)) but turns
    any pseudo-marginal kernel into its exact counterpart, which is what
    the equivalence oracles in the test-suite need.
    """

    def __init__(self, model: ModelSpec, dataset: Dataset):
        self._model = model
        self._dataset = dataset
        self._loglik_sum, self._grad_sum = model.bind_sums(dataset)
        self.n = dataset.n
        self.d = model.dim(dataset)
        self.order = 2

    def values_at(self, theta, idx):
        return self._model.loglik(theta, self._dataset, check_indices(idx, self.n))

    def sum_values(self, theta):
        return self._loglik_sum(theta)

    def grads_at(self, theta, idx):
        return self._model.grad_theta(theta, self._dataset, check_indices(idx, self.n))

    def grad_sum(self, theta):
        return self._grad_sum(theta)


@dataclass(slots=True)
class SubsampleRows:
    """The rows of one subsample, gathered once for repeated evaluation.

    `idx` holds the range-checked indices and `differ` the bound
    differences that gathered and evaluate them.  For a parameter-expanded
    cache `y`, `W` and `terms` hold the responses, design rows and theta-
    free row terms (`GlmModel.row_terms`); for any other cache they stay
    None and evaluation goes through the model and the cache by index.
    """

    idx: np.ndarray
    differ: _Differences
    y: np.ndarray | None = None
    W: np.ndarray | None = None
    terms: np.ndarray | None = None

    def splice(self, idx: np.ndarray, lo: int, hi: int, end: int) -> SubsampleRows:
        """The rows of `idx`, these rows' indices with lo:hi replaced by
        idx[lo:end]: the rows around that slice are kept, the new gathered."""
        if self.y is None:
            return SubsampleRows(idx, self.differ)
        new = self.differ.gather(idx[lo:end])
        return SubsampleRows(idx, self.differ, *(
            np.concatenate([old[:lo], seg, old[hi:]])
            for old, seg in ((self.y, new.y), (self.W, new.W), (self.terms, new.terms))))


def _centered_differences(d: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum_k d_k, d - mean d): the one summation the difference estimator,
    its variance and the HMC-ECS gradient all read."""
    total = float(np.add.reduce(d))
    return total, d - total / d.size


def difference_total(q_total: float, d: np.ndarray, n: int) -> tuple[float, float, np.ndarray]:
    """Value sum q_i + (n/m) sum d_k, its estimated variance and the centered
    differences, from sum_i q_i and the m sampled differences d.  The
    difference estimator and the HMC-ECS potential both use it, so they
    agree to the bit."""
    m = d.size
    total, centered = _centered_differences(d)
    value = q_total + n / m * total
    sample_variance = n * n / m * (float(centered.dot(centered)) / m)
    return value, sample_variance, centered


class _Differences:
    """d_i(theta) = ell_i(theta) - q_i(theta) and the totals sum_i q_i of one
    (model, cache, dataset), with their constants and the model's prior
    bound once per chain.  Indices are trusted (in range) and theta is a
    float array: the public functions check both before they get here.

    A subclass supplies `_terms(theta, rows, need_d, need_s) -> (at, d, s)`,
    with d_i and their gradients s each None unless asked for and `at` what
    `_total(at)` takes for sum_i q_i, and `_bind_gradient()`, which returns
    `gradient(theta, at, weights, s, rows)`: grad U for the weights of the
    gradients of d_i, bound once per chain."""

    def __init__(self, model: ModelSpec, cache, dataset: Dataset):
        self.model, self.cache, self.dataset, self.n = model, cache, dataset, dataset.n
        self.log_prior, self.grad_log_prior = model.prior.bind()

    def gather(self, idx) -> SubsampleRows:
        return SubsampleRows(idx, self)

    def estimate(self, theta, rows: SubsampleRows) -> tuple[float, float]:
        """(value, sample variance) of the difference estimator at gathered
        rows, as difference_estimate reports them."""
        at, d, _ = self._terms(theta, rows, True, False)
        value, sample_variance, _ = difference_total(self._total(at), d, self.n)
        return value, sample_variance

    def log_estimate(self, theta, rows: SubsampleRows) -> float:
        """pmmh's bias-corrected log estimate, value - sample variance / 2."""
        value, sample_variance = self.estimate(theta, rows)
        return value - sample_variance / 2.0

    def bind_potential(self, include_variance_grad: bool = True):
        """rows -> (evaluate, grad_potential), the HMC-ECS potential at gathered
        rows as functions of theta, bound once per chain: evaluate(theta) gives
        (U, grad U, log_phat), U = -(log_phat + log prior), log_phat the
        estimate less half its sample variance; grad_potential grad U alone, to
        the same bits, with the variance term unless include_variance_grad is
        False.  The gradient is the subclass's `_bind_gradient`: for a
        parameter-expanded cache one affine term in theta - theta0 that folds
        in the prior.  The cache total and log prior of the last theta
        evaluated are kept: the u-step evaluates a proposed subsample at the
        theta before it."""
        n, terms, total, log_prior = self.n, self._terms, self._total, self.log_prior
        gradient = self._bind_gradient()
        last = [None, None]

        def potential_at(rows):
            # grad of value - svar/2 is grad_sum + sum_i (n/m - n^2/m^2 centered_i) grad d_i;
            # without the variance term the weights are n/m
            m = rows.idx.size
            # 0-d arrays, the scalar operands numpy dispatches fastest, to the same bits
            scale, var_scale = np.array(n / m), np.array(n * n / (m * m))
            flat = None if include_variance_grad else np.full(m, scale)

            def evaluate(theta):
                at, d, s = terms(theta, rows, True, True)
                key = theta.tobytes()
                if key != last[0]:
                    last[:] = key, (total(at), log_prior(theta))
                q_total, prior = last[1]
                value, sample_variance, centered = difference_total(q_total, d, n)
                log_phat = value - sample_variance / 2.0
                weights = scale - centered * var_scale if include_variance_grad else flat
                return -(log_phat + prior), gradient(theta, at, weights, s, rows), log_phat

            def grad_potential(theta):
                at, d, s = terms(theta, rows, include_variance_grad, True)
                weights = (scale - _centered_differences(d)[1] * var_scale
                           if include_variance_grad else flat)
                return gradient(theta, at, weights, s, rows)
            return evaluate, grad_potential
        return potential_at


class _GlmDifferences(_Differences):
    """A parameter-expanded cache takes d_i from the model's Taylor
    remainder at a_i = w_i'(theta - theta0), free of the cancellation in
    ell - q, and the theta-gradient of d_i is s_i * w_i.  `_terms` and
    pmmh's `log_estimate` are bound at construction with the constants, the
    cache total and the family's remainder in locals: at small m the hops
    through methods and attributes cost more than their arithmetic."""

    def __init__(self, model: GlmModel, cache: ParamExpandedCache, dataset: Dataset):
        super().__init__(model, cache, dataset)
        self._y, self._eta0, self._design = dataset.y, cache.eta0, model.design
        self._total = cache._total
        theta0, order, remainder, total, n = (cache.expansion_point, cache.order,
                                              model.row_remainder, cache._total, self.n)

        def terms(theta, rows, need_d, need_s):
            # the remainder gives d whether asked or not; the totals take theta - theta0
            delta = theta - theta0
            out = remainder(rows.y, rows.terms, rows.W.dot(delta), order, need_s)
            return (delta, *out) if need_s else (delta, out, None)

        def log_estimate(theta, rows):
            delta = theta - theta0
            value, sample_variance, _ = difference_total(
                total(delta), remainder(rows.y, rows.terms, rows.W.dot(delta), order), n)
            return value - sample_variance / 2.0
        self._terms, self.log_estimate = terms, log_estimate

    def gather(self, idx) -> SubsampleRows:
        return SubsampleRows(idx, self, self._y[idx], self._design(self.dataset, idx),
                             self.model.row_terms(self._eta0[idx]))

    def _bind_gradient(self):
        """grad U = -(b + A delta + sum_k w_k s_k w_k) at delta = theta - theta0:
        the cache's gradient total g_q + H_q delta and the prior's
        (mu - theta) / sigma^2 are one affine term, A = H_q - I / sigma^2 (H_q
        the summed Hessian at order 2, 0 below) and b = g_q + (mu - theta0) /
        sigma^2 (g_q 0 at order 0), with -b bound once.  Its last bits differ
        from the unfolded sum's."""
        cache, prior = self.cache, self.model.prior
        order, theta0 = cache.order, cache.expansion_point
        A = posterior_hessian(self.model, cache.sum_hess if order >= 2
                              else np.zeros((cache.d, cache.d)))
        b = (prior.mean - theta0) / prior.sd**2
        if order >= 1:
            b = cache.sum_grad + b
        neg_b = -b

        def gradient(theta, delta, weights, s, rows):
            return neg_b - A.dot(delta) - (weights * s).dot(rows.W)
        return gradient


class _PlainDifferences(_Differences):
    """Any other cache: ell_i from the model less q_i from the cache."""

    def _terms(self, theta, rows, need_d, need_s):
        idx = rows.idx
        d = (self.model.loglik(theta, self.dataset, idx)
             - self.cache.values_at(theta, idx)) if need_d else None
        s = (self.model.grad_theta(theta, self.dataset, idx)
             - self.cache.grads_at(theta, idx)) if need_s else None
        return theta, d, s

    # looked up per call: a cache without gradients still serves the estimators
    def _total(self, theta):
        return self.cache.sum_values(theta)

    def _bind_gradient(self):
        cache, grad_log_prior = self.cache, self.grad_log_prior

        def gradient(theta, at, weights, s, rows):
            return -(cache.grad_sum(at) + weights @ s + grad_log_prior(theta))
        return gradient


def bind_differences(model: ModelSpec, cache, dataset: Dataset) -> _Differences:
    """The differences of one (model, cache, dataset), bound once: the GLM
    remainder path for a parameter-expanded cache, ell - q otherwise.  A
    cache built on other rows would mix their q_i with this dataset's ell_i."""
    if getattr(cache, "n", None) != dataset.n:
        raise DomainError(f"cache built on {getattr(cache, 'n', 'an unknown number of')} "
                          f"observations, dataset has {dataset.n}")
    if isinstance(cache, DataExpandedCache) and cache.centroids.shape[1] != dataset.p + 1:
        raise DomainError(f"cache built on points of {cache.centroids.shape[1]} "
                          f"coordinates, dataset has {dataset.p + 1}")
    if isinstance(cache, ParamExpandedCache):
        return _GlmDifferences(model, cache, dataset)
    return _PlainDifferences(model, cache, dataset)


def gather_rows(model: ModelSpec, cache, dataset: Dataset, idx) -> SubsampleRows:
    """Check `idx` against the data size and gather what evaluating it needs."""
    return bind_differences(model, cache, dataset).gather(check_indices(idx, dataset.n))


def differences(model: ModelSpec, cache, dataset: Dataset, theta, idx, grad: bool = False):
    """d_i(theta) = ell_i(theta) - q_i(theta) at the given indices.

    `idx` is an index array or the SubsampleRows of one.  A parameter-
    expanded cache takes d_i from the model's Taylor remainder at
    a_i = w_i'(theta - theta0), free of the cancellation in ell - q; other
    caches subtract q from ell.  With grad=True the result is (d, s): the
    theta-gradient of d_i is s_i * w_i for a parameter-expanded cache, and
    row i of s otherwise.
    """
    rows = idx if isinstance(idx, SubsampleRows) else gather_rows(model, cache, dataset, idx)
    _, d, s = rows.differ._terms(np.asarray(theta, dtype=float), rows, True, grad)
    return (d, s) if grad else d


def check_indices(idx, n: int) -> np.ndarray:
    """`idx` as an index array, raising DomainError unless it holds
    integers with 0 <= idx < n; a boolean mask would select rows instead.
    Indices entering the package are checked here, once; indices the
    samplers draw themselves are trusted."""
    idx = np.atleast_1d(np.asarray(idx))
    if idx.size:
        if idx.dtype.kind not in "iu":
            raise DomainError(f"indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= n:
            raise DomainError("index out of range")
    return idx


# ---------------------------------------------------------------------------
# Expansion-point selection
# ---------------------------------------------------------------------------

# a Newton iteration to a posterior mode stops at a step below _NEWTON_TOL
# in max norm, or after _NEWTON_STEPS steps
_NEWTON_STEPS, _NEWTON_TOL = 50, 1e-12


def posterior_hessian(model: ModelSpec, sum_hess: np.ndarray) -> np.ndarray:
    """Hessian of the log-posterior from the summed log-likelihood Hessian."""
    return sum_hess - np.eye(sum_hess.shape[0]) / model.prior.sd**2


def newton_point(model: ModelSpec, theta, sum_grad, sum_hess) -> tuple[np.ndarray, np.ndarray]:
    """(theta - H^-1 g, H): the package's one Newton step on the log-posterior,
    from the summed log-likelihood gradient and Hessian at theta plus the
    prior's; a singular H takes the least-squares step."""
    H = posterior_hessian(model, sum_hess)
    g = sum_grad + model.grad_log_prior(theta)
    try:
        step = np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        step = np.linalg.lstsq(H, g, rcond=None)[0]
    return theta - step, H


def select_expansion_point(model: ModelSpec, dataset: Dataset, seed: int = 0,
                           pilot_size: int | None = None) -> np.ndarray:
    """Posterior mode of a pilot subset, ceil(10 * sqrt(n)) rows by default,
    by Newton iteration from zero.  The full-data mode is reached from here
    on cache totals (`experiments._centred_cache`)."""
    n = dataset.n
    if pilot_size is None:
        pilot_size = min(n, int(np.ceil(10.0 * np.sqrt(n))))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = rng.choice(n, size=pilot_size, replace=False)
    # gathered and validated once, not twice per Newton step
    pilot = Dataset(dataset.y[idx], dataset.X[idx])
    theta = np.zeros(model.dim(dataset))
    for _ in range(_NEWTON_STEPS):
        new = newton_point(model, theta, np.sum(model.grad_theta(theta, pilot), axis=0),
                           np.sum(model.hess_theta(theta, pilot), axis=0))[0]
        if not np.all(np.isfinite(new)):
            break
        theta, step = new, np.max(np.abs(new - theta))
        if step < _NEWTON_TOL:
            break
    return theta

