"""Markov chain kernels: Metropolis-Hastings, pseudo-marginal MH with
dependent subsample proposals and sign recording, Hamiltonian Monte Carlo,
and HMC with energy conserving subsampling.

All acceptance computations happen in the log domain against a log-uniform
draw.  Each kernel derives child RNG streams from the seed, the first two
for theta proposals (or momenta) and acceptance uniforms, so kernels sharing
a seed share those streams exactly; identical seed and config give
bitwise-identical traces.  pmmh takes a third for subsampling; hmc_ecs takes
one stream per kind of draw: subsample indices (or cpm's Gaussian codes),
the initial subsample and the u-move uniforms.  The theta-proposal and
acceptance streams serve nothing else, so they are drawn in chunks of
_CHUNK, and what depends on those draws alone is computed a chunk at a
time: the random-walk increment chol.dot(z) * scale, the independence
proposal and its log q, the dense-mass momentum, and log u.  Each product
is a stacked np.matmul, which makes the same BLAS gemv or ddot call per
vector as ndarray.dot and so keeps its bits; one GEMM over the chunk
(Z @ chol.T) would round differently.  HMC-ECS's u-move log-uniforms are
drawn in chunks the same way.

The subsampling stream is drawn in chunks where it serves only bounded
integers: pmmh with the difference estimator and hmc_ecs, each under
independent or block-wise refresh.  Generator.integers(0, n) takes its
words from PCG64 without resetting a buffer between calls (32-bit halves,
buffered by the bit generator itself, for n <= 2^32; whole 64-bit words
above), so one call of size K k returns the same values as K calls of size
k.  A stream that interleaves bounded integers with whole-word draws would
be reordered by chunking, so it stays per call: the Pois(1) counts of the
product estimator and the Gaussian codes of cpm.

Per-iteration products on operands of at most m rows use `ndarray.dot`,
never `@`, put arrays before scalars, and take a chain's constant scalars as
0-d arrays: the same BLAS calls and IEEE operations, so the same bits, at
less of numpy's per-call dispatch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat

import numpy as np

from .control_variates import SubsampleRows, bind_differences, gather_rows
from .diagnostics import after_burn_in
from .errors import ConfigError, SamplerError
# difference_estimate and block_poisson_evaluate stay importable from here for
# tools that wrap them by these names
from .estimators import (  # noqa: F401
    BlockPoissonConfig,
    SubsampleState,
    block_poisson_evaluate,
    block_poisson_value,
    difference_estimate,
    draw_block_poisson,
    draw_bpm,
    draw_cpm,
    draw_products,
    draw_srs,
    gaussian_to_index,
)
from .models import Dataset, ModelSpec

DIVERGENCE_THRESHOLD = 1000.0


# ---------------------------------------------------------------------------
# Configuration containers
# ---------------------------------------------------------------------------

def _check_spd(matrix, key: str, what: str):
    """Raise ConfigError under `key` unless `matrix` is symmetric positive definite."""
    S = np.asarray(matrix, dtype=float)
    if not np.allclose(S, S.T):
        raise ConfigError(key, f"{what} must be symmetric")
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ConfigError(key, f"{what} must be positive definite") from None


@dataclass
class ProposalConfig:
    """Random-walk (default) or independence proposal N(center, scale^2 * shape).

    step_scale defaults to 2.38/sqrt(d), the classic dimension scaling.
    """

    kind: str = "rwm"
    step_scale: float | None = None
    shape: np.ndarray | None = None
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("rwm", "independence"):
            raise ConfigError("proposal_kind", f"unknown proposal kind {self.kind!r}")
        if self.kind == "independence" and self.center is None:
            raise ConfigError("proposal_kind", "an independence proposal needs a center")
        if self.step_scale is not None and not 0 < self.step_scale < math.inf:
            raise ConfigError("kappa", "step scale must be finite and positive")
        if self.shape is not None:
            _check_spd(self.shape, "omega", "proposal shape")


@dataclass
class HmcConfig:
    step_size: float
    n_steps: int
    mass: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ConfigError("epsilon", "leapfrog step size must be finite and positive")
        if self.n_steps < 1:
            raise ConfigError("leapfrog_steps", "need at least one leapfrog step")
        if self.mass is not None:
            _check_spd(self.mass, "mass", "mass matrix")


@dataclass
class DependenceConfig:
    """How the subsample proposal relates to the current subsample.

    independent: fresh draw every iteration.
    cpm: autoregressive update of the Gaussian code vector with
         coefficient ar_coef in [0, 1).
    bpm: refresh exactly one of n_blocks index blocks per call, cycling
         deterministically.
    """

    kind: str = "independent"
    ar_coef: float = 0.9
    n_blocks: int = 1

    def __post_init__(self):
        if self.kind not in ("independent", "cpm", "bpm"):
            raise ConfigError("dependence", f"unknown dependence kind {self.kind!r}")
        if self.kind == "cpm" and not 0.0 <= self.ar_coef < 1.0:
            raise ConfigError("phi", "autoregressive coefficient must lie in [0, 1)")
        if self.kind == "bpm" and self.n_blocks < 1:
            raise ConfigError("blocks", "need at least one block")


@dataclass
class ChainTrace:
    """Full per-iteration chain history.

    Burn-in is recorded, never silently discarded; diagnostics take a
    burn-in argument instead.  sign is +1 everywhere except for chains
    driven by the possibly-negative product estimator.
    """

    draws: np.ndarray
    accept: np.ndarray
    loglik_est: np.ndarray
    sign: np.ndarray
    u_accept: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_iter(self) -> int:
        return self.draws.shape[0]


@dataclass
class DifferenceConfig:
    """Bias-corrected difference estimator with m with-replacement draws."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m", "subsample size must be >= 1")


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _streams(seed, count: int = 3) -> tuple[np.random.Generator, ...]:
    """The seed's first `count` child streams (see the module docstring)."""
    children = np.random.SeedSequence(seed).spawn(count)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


def chain_seed(seed: int, chain_id: int):
    """Independent stream for chain `chain_id` of a multi-chain run."""
    return [int(seed), int(chain_id)]


# draws per call of a chunked stream; a chunk of d-vectors is 8 * d kB
_CHUNK = 1024


def _normal_chunks(rng: np.random.Generator, d: int, factor: np.ndarray | None = None):
    """Chunks of _CHUNK standard-normal d-vectors z, or of factor.dot(z): the
    same values in the same order as one rng.standard_normal(d) call each."""
    while True:
        Z = rng.standard_normal((_CHUNK, d))
        yield Z if factor is None else _stacked_dot(factor, Z)


def _stacked_dot(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A.dot(v) for each row v of V, to the bit: stacked matmul makes the same
    BLAS gemv call per row, where V @ A.T, one GEMM, rounds differently."""
    return np.matmul(A, V[:, :, None])[:, :, 0]


def _chunked_log_uniforms(rng: np.random.Generator):
    """Logs of uniforms on [0, 1) as floats, drawn _CHUNK at a time: the same
    values in the same order as np.log of one rng.random() call each."""
    while True:
        yield from np.log(rng.random(_CHUNK)).tolist()


# indices per refill of a chunked subsampling stream; a chunk's gathered
# rows take 8 (d + 3) bytes each, 4.5 MB at d = 6
_INDEX_CHUNK = 1 << 16


class _IndexChunks:
    """A subsampling stream that serves only `integers(0, n, size=k)`,
    drawn about `size` indices at a time: the same values in the same order
    as one rng.integers(0, n, size=k) call per request (see the module
    docstring).  A request may straddle two chunks.

    With `views`, each chunk's rows are gathered once by `differ`, and a
    request within one chunk makes the views of them that `rows_of` returns
    for a proposal of the array it returned; any other, and the rows of
    differences that gather nothing (`SubsampleRows.y` None), are gathered.
    """

    def __init__(self, rng: np.random.Generator, differ, size: int, views: bool):
        self._rng, self._differ, self._size, self._views = rng, differ, size, views
        self.n = differ.n
        self._idx = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._chunk = self._last = None

    def integers(self, low, high, size):
        if low != 0 or high != self.n:
            raise SamplerError("a chunked subsampling stream serves integers(0, n) only")
        lo, hi = self._pos, self._pos + size
        if hi > self._idx.size:
            tail = self._idx[lo:]
            self._refill(max(self._size, size - tail.size))
            if tail.size:
                self._pos = size - tail.size
                return np.concatenate([tail, self._idx[:self._pos]])
            lo, hi = 0, size
        self._pos = hi
        idx = self._idx[lo:hi]
        if self._chunk is not None:
            y, W, terms = self._chunk
            self._last = SubsampleRows(idx, self._differ, y[lo:hi], W[lo:hi], terms[lo:hi])
        return idx

    def _refill(self, size):
        self._chunk = self._last = None
        self._idx = self._rng.integers(0, self.n, size=size)
        if self._views:
            rows = self._differ.gather(self._idx)
            if rows.y is not None:
                self._chunk = rows.y, rows.W, rows.terms

    def rows_of(self, proposed: SubsampleState, rows=None) -> SubsampleRows:
        idx, last = proposed.indices, self._last
        return last if last is not None and last.idx is idx else self._differ.gather(idx)


class _Proposer:
    def __init__(self, cfg: ProposalConfig, d: int):
        self.rwm, self.d = cfg.kind == "rwm", d
        scale = cfg.step_scale if cfg.step_scale is not None else 2.38 / np.sqrt(d)
        self.scale = np.array(scale, dtype=float)
        shape = np.asarray(cfg.shape, dtype=float) if cfg.shape is not None else np.eye(d)
        self.chol = np.linalg.cholesky(shape)
        self.chol_inv = np.linalg.inv(self.chol)
        self.center = None if cfg.center is None else np.asarray(cfg.center, dtype=float)

    def steps(self, rng: np.random.Generator):
        """Per iteration, from one standard-normal vector z of `rng`: the
        increment chol.dot(z) * scale and 0.0 under rwm, else the proposal
        center + increment and its log q.  Drawn a chunk at a time."""
        for inc in _normal_chunks(rng, self.d, self.chol):
            inc = inc * self.scale
            if self.rwm:
                yield from zip(inc, repeat(0.0))
            else:
                prop = self.center + inc
                yield from zip(prop, self.log_q(prop))

    def log_q(self, V: np.ndarray) -> list:
        """-w.w / 2 for w = chol_inv.dot(v - center) / scale, per row v of V."""
        W = _stacked_dot(self.chol_inv, V - self.center) / self.scale
        return (np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0] * -0.5).tolist()


def log_accept_ratio(log_target_prop: float, log_target_cur: float,
                     log_q_correction: float = 0.0) -> float:
    """The pseudo-marginal acceptance ratio sees the two states only through
    these two log-target scalars (plus the proposal correction)."""
    return log_target_prop - log_target_cur + log_q_correction


def _empty_trace(n_iter: int, d: int) -> ChainTrace:
    return ChainTrace(
        draws=np.empty((n_iter, d)),
        accept=np.zeros(n_iter, dtype=bool),
        loglik_est=np.empty(n_iter),
        sign=np.ones(n_iter, dtype=np.int8),
        u_accept=np.zeros(n_iter, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Subsample proposals
# ---------------------------------------------------------------------------

def propose_u(current: SubsampleState, dependence: DependenceConfig,
              rng: np.random.Generator) -> SubsampleState:
    """Propose a new subsample state; never mutates the current one.

    Gaussian codes move autoregressively under cpm and are drawn afresh
    otherwise.  Any other state redraws the segments of one refresh block:
    all segments when independent, block `cursor` of n_blocks under bpm.
    A product's segment is redrawn as a fresh Pois(1) count of mini-batches.
    """
    n, bounds = current.n, current.bounds
    if current.gaussians is not None:
        if dependence.kind == "bpm":
            raise ConfigError("dependence", "bpm dependence needs an index-coded subsample")
        phi = dependence.ar_coef if dependence.kind == "cpm" else 0.0
        g = phi * current.gaussians + np.sqrt(1.0 - phi * phi) * rng.standard_normal(current.m)
        return SubsampleState(n, gaussian_to_index(g, n), bounds, g)
    if dependence.kind == "cpm":
        raise ConfigError("dependence", "cpm dependence needs a Gaussian-coded subsample")
    G = dependence.n_blocks if dependence.kind == "bpm" else 1
    if G == 1 and current.batch_size is None:
        return SubsampleState(n, rng.integers(0, n, size=current.indices.size), bounds)
    if (bounds.size - 1) % G != 0:
        raise ConfigError("blocks", "block count must divide the number of segments")
    per = (bounds.size - 1) // G
    g = current.cursor % G
    lo, hi = bounds[g * per], bounds[(g + 1) * per]
    if current.batch_size is None:
        indices = current.indices.copy()
        indices[lo:hi] = rng.integers(0, n, size=hi - lo)
    else:
        new, offsets = draw_products(n, per, current.batch_size, rng)
        indices = np.concatenate([current.indices[:lo], new, current.indices[hi:]])
        bounds = np.concatenate([bounds[:g * per], lo + offsets,
                                 bounds[(g + 1) * per + 1:] + (new.size - (hi - lo))])
    return SubsampleState(n, indices, bounds, None, current.batch_size, (g + 1) % G,
                          (lo, hi, hi + indices.size - current.m) if G > 1 else None)


def _rows_of(gather):
    """(proposed, rows) -> the proposal's rows: the current state's `rows`
    spliced where it records a replaced slice, else gather(proposed.indices)."""
    def rows_of(proposed: SubsampleState, rows):
        if proposed.replaced is None:
            return gather(proposed.indices)
        return rows.splice(proposed.indices, *proposed.replaced)
    return rows_of


def initial_subsample(est_cfg, dependence: DependenceConfig, n: int,
                      rng: np.random.Generator) -> SubsampleState:
    if isinstance(est_cfg, DifferenceConfig):
        if dependence.kind == "cpm":
            return draw_cpm(n, est_cfg.m, rng)
        if dependence.kind == "bpm":
            return draw_bpm(n, est_cfg.m, dependence.n_blocks, rng)
        return draw_srs(n, est_cfg.m, rng)
    if isinstance(est_cfg, BlockPoissonConfig):
        if dependence.kind == "cpm":
            raise ConfigError("dependence", "cpm does not apply to the product estimator")
        return draw_block_poisson(n, est_cfg.n_products, est_cfg.batch_size, rng)
    raise ConfigError("estimator", f"unknown estimator config {type(est_cfg).__name__}")


# ---------------------------------------------------------------------------
# Pseudo-marginal Metropolis-Hastings, and full-data MH as its exact case
# ---------------------------------------------------------------------------

def pmmh_run(model: ModelSpec, dataset: Dataset, cache, est_cfg,
             proposal: ProposalConfig, dependence: DependenceConfig,
             theta0, n_iter: int, seed) -> ChainTrace:
    """Joint (theta, u) Metropolis-Hastings on an estimated likelihood.

    With the bias-corrected difference estimator the sign is identically
    +1 and the chain targets a slightly perturbed posterior; with the
    product estimator the acceptance uses |estimate| and the running sign
    is recorded for the importance-weighted correction afterwards.
    """
    rng_prop, rng_accept, rng_sub = _streams(seed)
    differ = bind_differences(model, cache, dataset)
    rows_of = _rows_of(differ.gather)

    if isinstance(est_cfg, DifferenceConfig):
        if dependence.kind != "cpm":
            # the stream serves only integers(0, n, ·), so it is drawn in chunks;
            # independent proposals are evaluated on views of each chunk's rows
            m, views = est_cfg.m, dependence.kind == "independent"
            rng_sub = _IndexChunks(rng_sub, differ, m * max(1, _INDEX_CHUNK // m), views)
            if views:
                rows_of = rng_sub.rows_of

        evaluate, signed = differ.log_estimate, False
    else:
        evaluate, signed = partial(block_poisson_value, model, cache, dataset, est_cfg), True

    state = initial_subsample(est_cfg, dependence, dataset.n, rng_sub)
    trace = _mh_loop(evaluate, differ.log_prior, proposal, theta0, n_iter,
                     (rng_prop, rng_accept, rng_sub), state, dependence, rows_of, signed)
    trace.meta["cost_proxy"] = (est_cfg.m if isinstance(est_cfg, DifferenceConfig)
                                else est_cfg.n_products * est_cfg.batch_size)
    return trace


def mh_run(model: ModelSpec, dataset: Dataset, proposal: ProposalConfig,
           theta0, n_iter: int, seed) -> ChainTrace:
    """Metropolis-Hastings on the full-data posterior: the pseudo-marginal
    loop with the exact log-likelihood as its estimate and no subsample."""
    loglik_sum = model.bind_sums(dataset)[0]

    trace = _mh_loop(lambda t, rows: loglik_sum(t), model.prior.bind()[0], proposal, theta0,
                     n_iter, _streams(seed))
    trace.meta["cost_proxy"] = dataset.n
    return trace


def _mh_loop(evaluate, log_prior, proposal: ProposalConfig, theta0, n_iter: int, streams,
             state=None, dependence: DependenceConfig | None = None,
             rows_of=None, signed: bool = False) -> ChainTrace:
    """Shared MH loop on the extended state (theta, u).  `evaluate(theta,
    rows)` returns the log-likelihood estimate, or (log |estimate|, sign) if
    `signed`, at rows = rows_of(state, None), or None when `state` is None
    (full-data MH).  Each iteration moves u by `propose_u` on the third of
    `streams` and takes its rows from `rows_of(proposal, rows)`.  A proposal
    with sign 0 or a non-finite log target is rejected; trace.meta counts them
    next to the wall time.  The trace is filled from the accepted iterations."""
    if n_iter < 1:
        raise SamplerError("need n_iter >= 1")
    rng_prop, rng_accept, rng_sub = streams
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.size
    propose = _Proposer(proposal, d)
    rwm, isfinite = propose.rwm, math.isfinite
    log_q = 0.0 if rwm else propose.log_q(theta[None])[0]
    rows = None if state is None else rows_of(state, None)
    log_est, sign = evaluate(theta, rows) if signed else (evaluate(theta, rows), 1)
    log_target = log_est + log_prior(theta)
    if sign == 0 or not np.isfinite(log_target):
        raise SamplerError("unusable likelihood estimate at the initial point")

    invalid = 0
    accepted, kept = [], [(theta, log_est, sign)]
    t_start = time.perf_counter()
    state_prop = rows_prop = None
    for i, (step, log_q_p), log_u in zip(range(n_iter), propose.steps(rng_prop),
                                          _chunked_log_uniforms(rng_accept)):
        if state is not None:
            state_prop = propose_u(state, dependence, rng_sub)
            rows_prop = rows_of(state_prop, rows)
        theta_prop = theta + step if rwm else step
        log_est_p, sign_p = (evaluate(theta_prop, rows_prop) if signed
                             else (evaluate(theta_prop, rows_prop), 1))
        log_target_p = log_est_p + log_prior(theta_prop)
        if sign_p == 0 or not isfinite(log_target_p):
            invalid += 1
        elif log_u < log_accept_ratio(log_target_p, log_target, log_q - log_q_p):
            theta, state, rows = theta_prop, state_prop, rows_prop
            log_target, log_q = log_target_p, log_q_p
            accepted.append(i)
            kept.append((theta_prop, log_est_p, sign_p))
        if state is not state_prop:
            # rejected: carry the cursor forward so the refresh cycle keeps rotating
            state.cursor = state_prop.cursor
    trace = _empty_trace(n_iter, d)
    trace.accept[accepted] = True
    at = np.cumsum(trace.accept)  # iteration i keeps the at[i]-th accepted state
    for column, out in zip(zip(*kept), (trace.draws, trace.loglik_est, trace.sign)):
        out[:] = np.array(column)[at]
    trace.meta = {"wall_time": time.perf_counter() - t_start, "invalid_proposals": invalid}
    return trace


def signed_expectation(trace: ChainTrace, psi, burn_in: int = 0) -> float:
    """Sign-corrected posterior expectation sum(psi * s) / sum(s)."""
    signs = after_burn_in(trace.sign, burn_in).astype(float)
    total = float(np.sum(signs))
    if total <= 0:
        raise SamplerError("sign sum <= 0: sign rate too far below 1 to estimate anything")
    vals = np.array([psi(t) for t in trace.draws[burn_in:]], dtype=float)
    return float(np.sum(vals * signs) / total)


# ---------------------------------------------------------------------------
# Hamiltonian Monte Carlo
# ---------------------------------------------------------------------------

def leapfrog(grad_potential, theta: np.ndarray, mom: np.ndarray, step_size: float,
             n_steps: int, mass_inv: np.ndarray | None, evaluate=None, grad0=None):
    """Half momentum step, n_steps position steps with interleaved momentum
    steps, closing half momentum step.  A mass_inv of None is the identity.

    `grad0`, when given, is the gradient at the start point, which is then
    not evaluated again.  Given `evaluate(theta) -> (U, grad U,
    log-likelihood)`, the last gradient comes from it and the end point's
    (U, grad U, log-likelihood) is returned as a third item, so the caller
    need not evaluate there again.
    """
    theta, half = theta.copy(), 0.5 * step_size
    mom = mom - (grad_potential(theta) if grad0 is None else grad0) * half
    for step in range(1, n_steps):
        theta = theta + (mom if mass_inv is None else mass_inv.dot(mom)) * step_size
        mom = mom - grad_potential(theta) * step_size
    theta = theta + (mom if mass_inv is None else mass_inv.dot(mom)) * step_size
    if evaluate is None:
        return theta, mom - grad_potential(theta) * half
    U, g, loglik = evaluate(theta)
    return theta, mom - g * half, (U, g, loglik)


def _hmc_machinery(cfg: HmcConfig):
    """(Cholesky factor of M, M^-1), or (None, None) for the identity mass,
    whose products are skipped: they would return the same values."""
    if cfg.mass is None:
        return None, None
    M = np.asarray(cfg.mass, dtype=float)
    return np.linalg.cholesky(M), np.linalg.inv(M)


def _kinetic(mom: np.ndarray, M_inv: np.ndarray | None) -> float:
    return 0.5 * float(mom.dot(mom if M_inv is None else M_inv.dot(mom)))


def hmc_run(model: ModelSpec, dataset: Dataset, cfg: HmcConfig, theta0,
            n_iter: int, seed) -> ChainTrace:
    """HMC on the full-data posterior: the shared HMC loop with no subsample."""
    loglik_sum, grad_sum = model.bind_sums(dataset)
    log_prior, grad_log_prior = model.prior.bind()

    def grad_potential(t):
        return -(grad_sum(t) + grad_log_prior(t))

    def evaluate(t):
        loglik = loglik_sum(t)
        return -(loglik + log_prior(t)), grad_potential(t), loglik

    trace = _hmc_loop(lambda rows: (evaluate, grad_potential), cfg, theta0, n_iter,
                      _streams(seed, 2))
    trace.meta["cost_proxy"] = dataset.n * cfg.n_steps
    return trace


def _hmc_loop(potential_at, cfg: HmcConfig, theta0, n_iter: int, streams,
              state=None, dependence: DependenceConfig | None = None,
              rows_of=None) -> ChainTrace:
    """Shared HMC loop on the extended state (theta, u).  `potential_at(rows)`
    returns `evaluate(theta)` -> (U, grad U, log-likelihood) and
    `grad_potential(theta)` -> grad U, to the same bits, at rows =
    rows_of(state, None), or None when `state` is None (full-data HMC).
    `streams` holds the momentum and acceptance streams, then with a
    subsample the subsampling stream and the u-move's.  Each iteration then
    first moves u given theta (the energy conserving subsampling Gibbs
    block): `propose_u` on the subsampling stream, the proposal's rows, and
    acceptance on the ratio of the likelihood estimates against one
    log-uniform of the u-move stream, drawn a chunk at a time.  The triple
    at the current point is carried, so a trajectory opens on the carried
    gradient and makes n_steps - 1 `grad_potential` calls and one `evaluate`
    call at its end.  The recorded log-likelihood is the one the draw was
    accepted or kept under; trace.meta counts divergences next to the wall
    time."""
    if n_iter < 1:
        raise SamplerError("need n_iter >= 1")
    rng_prop, rng_accept, *subsampling = streams
    chol_M, M_inv = _hmc_machinery(cfg)
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.size
    rows = None if state is None else rows_of(state, None)
    evaluate, grad_potential = potential_at(rows)
    U, g, loglik = evaluate(theta)
    if not np.isfinite(U):
        raise SamplerError("non-finite potential at the initial point")
    trace = _empty_trace(n_iter, d)
    diverged = 0
    momenta = chain.from_iterable(_normal_chunks(rng_prop, d, chol_M))
    log_uniforms = _chunked_log_uniforms(rng_accept)
    if state is not None:
        rng_sub, rng_u = subsampling
        u_move_log_uniforms = _chunked_log_uniforms(rng_u)
    t_start = time.perf_counter()
    for i in range(n_iter):
        if state is not None:
            state_prop = propose_u(state, dependence, rng_sub)
            log_u = next(u_move_log_uniforms)
            rows_prop = rows_of(state_prop, rows)
            potential = potential_at(rows_prop)
            U_prop, g_prop, loglik_prop = potential[0](theta)
            if math.isfinite(loglik_prop) and log_u < loglik_prop - loglik:
                state, rows, U, g, loglik = state_prop, rows_prop, U_prop, g_prop, loglik_prop
                evaluate, grad_potential = potential
                trace.u_accept[i] = True
            else:
                state.cursor = state_prop.cursor
        mom = next(momenta)
        log_u = next(log_uniforms)
        K = _kinetic(mom, M_inv)
        # trajectories are allowed to blow up; the divergence guard below
        # is the designed response, so silence the intermediate overflow
        with np.errstate(over="ignore", invalid="ignore"):
            theta_prop, mom_prop, (U_prop, g_prop, loglik_prop) = leapfrog(
                grad_potential, theta, mom, cfg.step_size, cfg.n_steps, M_inv, evaluate, g)
            K_prop = _kinetic(mom_prop, M_inv)
        dH = (U_prop + K_prop) - (U + K)
        if not math.isfinite(dH) or abs(dH) > DIVERGENCE_THRESHOLD:
            diverged += 1
        elif log_u < -dH:
            theta, U, g, loglik = theta_prop, U_prop, g_prop, loglik_prop
            trace.accept[i] = True
        trace.draws[i] = theta
        trace.loglik_est[i] = loglik
    trace.meta = {"wall_time": time.perf_counter() - t_start, "divergences": diverged}
    return trace


# ---------------------------------------------------------------------------
# HMC with energy conserving subsampling
# ---------------------------------------------------------------------------

def subsampled_potential(model: ModelSpec, cache, dataset: Dataset, theta,
                         indices, include_variance_grad: bool = True):
    """Estimated potential and its exact theta-gradient at a fixed subsample.

    `indices` is an index array, range-checked and gathered here, or the
    SubsampleRows of one.  The potential is -(log-lik estimate -
    sample_variance/2 + log prior), the estimate and variance being
    difference_estimate's; the gradient differentiates the
    variance-correction term as well unless include_variance_grad is False
    (ablation flag).  The evaluation is the bound potential hmc_ecs_run
    calls, so the two agree to the bit.
    """
    rows = (indices if isinstance(indices, SubsampleRows)
            else gather_rows(model, cache, dataset, indices))
    return rows.differ.bind_potential(include_variance_grad)(rows)[0](
        np.asarray(theta, dtype=float))


def hmc_ecs_run(model: ModelSpec, dataset: Dataset, cache, cfg: HmcConfig,
                m: int, theta0, n_iter: int, seed,
                dependence: DependenceConfig | None = None,
                include_variance_grad: bool = True) -> ChainTrace:
    """Two-block Gibbs: MH refresh of the subsample, then an HMC update of
    theta whose trajectory gradients and acceptance Hamiltonian come from
    the same estimated potential at the just-updated subsample.

    The potential is bound once per chain, and at each proposed subsample's
    rows, gathered once, into functions of theta alone; with a parameter-
    expanded cache its gradient is one affine term in theta - theta0 with the
    prior folded in (`_Differences.bind_potential`).  The current point's
    potential, gradient and log-likelihood estimate are carried over from
    the previous iteration, so an iteration makes two full evaluations,
    (U, grad U, log-likelihood) for the proposed subsample and at the
    trajectory's end, and n_steps - 1 gradient-only ones inside the
    trajectory.

    The seed's five child streams serve one kind of draw each: momenta,
    acceptance uniforms, subsample indices (or cpm's Gaussian codes), the
    initial subsample and the u-move's log-uniforms.  Under independent and
    block-wise refresh the index stream serves only integers(0, n, ·), so it
    is drawn in chunks; under cpm it is drawn per call."""
    dependence = dependence if dependence is not None else DependenceConfig()
    rng_prop, rng_accept, rng_sub, rng_init, rng_u = _streams(seed, 5)
    state = initial_subsample(DifferenceConfig(m), dependence, dataset.n, rng_init)
    differ = bind_differences(model, cache, dataset)
    if dependence.kind != "cpm":
        rng_sub = _IndexChunks(rng_sub, differ, m * max(1, _INDEX_CHUNK // m), False)
    trace = _hmc_loop(differ.bind_potential(include_variance_grad), cfg, theta0, n_iter,
                      (rng_prop, rng_accept, rng_sub, rng_u), state, dependence,
                      _rows_of(differ.gather))
    trace.meta["cost_proxy"] = m * cfg.n_steps
    return trace
