"""Subsampled log-likelihood and likelihood estimators.

Everything stays in the log domain: with n in the millions the total
log-likelihood has magnitudes that overflow exp(), so likelihood values
are only ever exponentiated inside toy-scale test oracles.

Estimators are deterministic functions of (theta, SubsampleState); the
randomness lives entirely in the state constructors, which take an
explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .control_variates import bind_differences, check_indices, differences
from .errors import DomainError
from .models import Dataset, ModelSpec


@dataclass(slots=True)
class SubsampleState:
    """The auxiliary variable u: which observations a likelihood estimate saw.

    `indices` are the sampled observations, split by `bounds` into
    segments: one for a plain or Gaussian-coded draw, one per refresh block
    for block-wise refresh, and one per product for the product estimator,
    whose segments hold whole mini-batches of `batch_size`, so that
    `indices.reshape(-1, batch_size)` lists them.  `gaussians` are the
    codes behind the indices of a correlated draw.  `cursor` tracks which
    refresh block a cyclic refresh touches next.  A refresh of one block of
    several records `replaced = (lo, hi, end)`: its lo:end replaced lo:hi.
    """

    n: int
    indices: np.ndarray
    bounds: np.ndarray
    gaussians: np.ndarray | None = None
    batch_size: int | None = None
    cursor: int = 0
    replaced: tuple[int, int, int] | None = None

    @property
    def m(self) -> int:
        return int(self.indices.shape[0])


def gaussian_to_index(g: np.ndarray, n: int) -> np.ndarray:
    """Map standard normals to uniform observation indices via the normal CDF."""
    return np.minimum((n * special.ndtr(g)).astype(int), n - 1)


def draw_srs(n: int, m: int, rng: np.random.Generator) -> SubsampleState:
    if m < 1:
        raise DomainError("subsample size must be >= 1")
    return SubsampleState(n, rng.integers(0, n, size=m), np.array([0, m]))


def draw_cpm(n: int, m: int, rng: np.random.Generator) -> SubsampleState:
    if m < 1:
        raise DomainError("subsample size must be >= 1")
    g = rng.standard_normal(m)
    return SubsampleState(n, gaussian_to_index(g, n), np.array([0, m]), g)


def draw_bpm(n: int, m: int, n_blocks: int, rng: np.random.Generator) -> SubsampleState:
    if m < 1:
        raise DomainError("subsample size must be >= 1")
    if not 1 <= n_blocks <= m:
        raise DomainError("need 1 <= n_blocks <= m")
    sizes = np.full(n_blocks, m // n_blocks)
    sizes[: m % n_blocks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return SubsampleState(n, rng.integers(0, n, size=m), bounds)


def draw_products(n: int, n_products: int, batch_size: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of n_products products, each Pois(1)-many mini-batches,
    and the product bounds starting at 0.  One draw of count * batch_size
    indices reads the same stream as count draws of batch_size each."""
    segments, bounds = [], [0]
    for _ in range(n_products):
        size = rng.poisson(1.0) * batch_size
        if size:
            segments.append(rng.integers(0, n, size=size))
        bounds.append(bounds[-1] + size)
    return np.concatenate(segments or [np.empty(0, dtype=np.int64)]), np.array(bounds)


def draw_block_poisson(n: int, n_products: int, batch_size: int,
                       rng: np.random.Generator) -> SubsampleState:
    """lambda outer products, each holding Pois(1)-many mini-batches of indices."""
    if n_products < 1 or batch_size < 1:
        raise DomainError("need n_products >= 1 and batch_size >= 1")
    indices, bounds = draw_products(n, n_products, batch_size, rng)
    return SubsampleState(n, indices, bounds, batch_size=batch_size)


@dataclass
class LogLikEstimate:
    """A log-likelihood total estimate with its estimated variance.

    sample_variance estimates Var of the *total* estimator: the raw
    within-sample variance of the summands is scaled by n^2/m, so that the
    bias correction exp(-sample_variance/2) operates on the right scale.
    """

    value: float
    sample_variance: float
    m: int
    theta: np.ndarray


def srs_wr_estimate(model: ModelSpec, dataset: Dataset, theta, indices) -> LogLikEstimate:
    """Plain with-replacement expansion estimator (n/m) * sum ell_{u_k}."""
    indices = check_indices(indices, dataset.n)
    if indices.size == 0:
        raise DomainError("empty index set")
    n, m = dataset.n, indices.size
    ell = model.loglik(theta, dataset, indices)
    value = n / m * float(np.sum(ell))
    sample_variance = n * n / m * float(np.mean((ell - np.mean(ell)) ** 2))
    return LogLikEstimate(value=value, sample_variance=sample_variance, m=m,
                          theta=np.asarray(theta, dtype=float))


def optimal_m_srs_wor(n: int, sigma2_pop: float, target: float = 3.3) -> int:
    """Without-replacement subsample size hitting a target estimator variance.

    Only used for planning studies; all samplers draw with replacement.
    """
    if n < 1 or sigma2_pop < 0 or target <= 0:
        raise DomainError("need n >= 1, sigma2_pop >= 0, target > 0")
    m = int(np.ceil(n * n * sigma2_pop / (n * sigma2_pop + target)))
    return min(max(m, 1), n)


def wor_sampling_fraction(n: int, sigma2_pop: float, target: float = 3.3) -> float:
    """Exact real-valued m/n from the without-replacement variance formula."""
    return n * sigma2_pop / (n * sigma2_pop + target)


def difference_estimate(model: ModelSpec, cache, dataset: Dataset, theta,
                        sub) -> LogLikEstimate:
    """Survey-sampling difference estimator: sum q_i + (n/m) sum d_{u_k}.

    Unbiased for the log-likelihood total whatever the quality of the
    control variates.  `sub` is a SubsampleState carrying with-replacement
    indices, or a bare index array.
    """
    indices = check_indices(sub.indices if isinstance(sub, SubsampleState) else sub, dataset.n)
    if indices.size == 0:
        raise DomainError("empty index set")
    theta = np.asarray(theta, dtype=float)
    differ = bind_differences(model, cache, dataset)
    # the evaluation pmmh makes, so the two agree to the bit
    value, sample_variance = differ.estimate(theta, differ.gather(indices))
    return LogLikEstimate(value=value, sample_variance=sample_variance, m=indices.size,
                          theta=theta)


# ---------------------------------------------------------------------------
# Block-Poisson product estimator
# ---------------------------------------------------------------------------

@dataclass
class BlockPoissonConfig:
    """n_products outer blocks, Pois(1) mini-batches of batch_size each,
    soft lower bound `bound` on the mini-batch difference estimates."""

    n_products: int
    batch_size: int
    bound: float

    def __post_init__(self):
        if self.n_products < 1 or self.batch_size < 1:
            raise DomainError("need n_products >= 1 and batch_size >= 1")
        if not np.isfinite(self.bound):
            raise DomainError("the soft bound must be finite")


def block_poisson_evaluate(model: ModelSpec, cache, dataset: Dataset, theta,
                           cfg: BlockPoissonConfig, state: SubsampleState) -> tuple[float, int]:
    """Deterministic evaluation of the product estimator on a drawn state.

    Returns (log |estimate|, sign).  Unbiased for the likelihood itself,
    not its log; possibly negative when a mini-batch estimate falls below
    the soft bound.  A mini-batch hitting the bound exactly yields sign 0
    with log_abs = -inf (callers treat it as an invalid proposal).
    """
    if state.batch_size != cfg.batch_size:
        raise DomainError(f"expected mini-batches of {cfg.batch_size}, got {state.batch_size}")
    return block_poisson_value(model, cache, dataset, cfg, theta, state.indices)


def block_poisson_value(model: ModelSpec, cache, dataset: Dataset, cfg: BlockPoissonConfig,
                        theta, rows) -> tuple[float, int]:
    """block_poisson_evaluate at `rows`, the indices of a state drawn for
    `cfg` or the SubsampleRows gathered for them.  All mini-batches are
    evaluated in one `differences` call, the one bind of an index array."""
    d = differences(model, cache, dataset, theta, rows)
    lam = cfg.n_products
    dhat = np.add.reduce(d.reshape(-1, cfg.batch_size), axis=1) * (dataset.n / cfg.batch_size)
    factors = (dhat - cfg.bound) / lam
    if (factors == 0.0).any():
        return -np.inf, 0
    logs = np.empty(factors.size + 1)
    logs[0] = cache.sum_values(theta) + cfg.bound + lam
    np.log(np.abs(factors), out=logs[1:])
    sign = -1 if np.count_nonzero(factors < 0.0) % 2 else 1
    # one at a time in mini-batch order: a pairwise np.sum would round differently
    return float(np.add.accumulate(logs)[-1]), sign


def default_soft_bound(model: ModelSpec, cache, dataset: Dataset, theta,
                       cfg_n_products: int, pilot_m: int, rng: np.random.Generator) -> float:
    """bound = dhat_pilot - n_products, the variance-minimizing choice with
    the unknown total of differences replaced by a pilot estimate."""
    pilot = draw_srs(dataset.n, pilot_m, rng)
    d = differences(model, cache, dataset, theta, pilot.indices)
    return dataset.n / pilot_m * float(np.sum(d)) - cfg_n_products


# ---------------------------------------------------------------------------
# Subsample-size planning
# ---------------------------------------------------------------------------

@dataclass
class PlanningInputs:
    n: int
    sigma2_pop: float
    target: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.sigma2_pop < 0 or self.target <= 0:
            raise DomainError("need n >= 1, sigma2_pop >= 0, target > 0")


def estimate_sigma2_pilot(model: ModelSpec, cache, dataset: Dataset, thetas,
                          pilot_size: int, rng: np.random.Generator) -> float:
    """Population variance of the differences, estimated from a pilot
    with-replacement subsample and averaged over the supplied evaluation
    points (the variance of parameter-expanded differences depends
    strongly on where theta sits)."""
    if pilot_size < 30:
        raise DomainError("pilot size must be >= 30")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    out = []
    for theta in thetas:
        idx = rng.integers(0, dataset.n, size=pilot_size)
        d = differences(model, cache, dataset, theta, idx)
        out.append(float(np.var(d, ddof=1)))
    return float(np.mean(out))


def plan_subsample_size(plan: PlanningInputs) -> tuple[int, bool]:
    """m = ceil(n^2 sigma2 / target) for with-replacement sampling.

    Returns (m, degenerate) where degenerate flags a zero pilot variance
    (m falls back to 1; the estimator is exact in that case anyway).
    """
    if plan.sigma2_pop == 0.0:
        return 1, True
    return int(np.ceil(plan.n**2 * plan.sigma2_pop / plan.target)), False
