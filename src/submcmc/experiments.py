"""Reproducible experiment driver behind the CLI.

Configs are flat key=value dictionaries.  Resolution turns every deferred
choice (pilot expansion points, planned subsample sizes, default soft
bounds) into literal numbers, and the resolved config is echoed next to
every artifact, so re-running from the echo reproduces outputs
byte-for-byte.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, models
from .control_variates import (
    _NEWTON_STEPS,
    _NEWTON_TOL,
    ExactControlVariate,
    ParamExpandedCache,
    build_data_expanded,
    build_param_expanded,
    kmeans_cluster,
    newton_point,
    posterior_hessian,
    select_expansion_point,
)
from .diagnostics import autocorrelations, iact, summarize, write_summary_csv
from .errors import ConfigError, DomainError
from .estimators import (
    BlockPoissonConfig,
    PlanningInputs,
    default_soft_bound,
    estimate_sigma2_pilot,
    optimal_m_srs_wor,
    plan_subsample_size,
    wor_sampling_fraction,
)
from ._csvpart import parse
from .models import (MODELS, Dataset, GlmModel, ModelSpec, _raise_first_bad_row, load_dataset,
                     simulate_poisson, write_csv)
from .samplers import (
    ChainTrace,
    DependenceConfig,
    DifferenceConfig,
    HmcConfig,
    ProposalConfig,
    chain_seed,
    hmc_ecs_run,
    hmc_run,
    mh_run,
    pmmh_run,
)

EXAMPLE_THETA = (1.0, 0.75)
EXAMPLE_N = 1000
EXAMPLE_SEED = 1830

OUTPUT_DIR_ENV = "SUBMCMC_OUTPUT_DIR"

# seed tags for the deterministic helper streams used during resolution
_TAG_EXPANSION = 101
_TAG_PLANNING = 102
_TAG_BOUND = 103
_TAG_DIRECTIONS = 104
_TAG_CENTRE = 105

# smallest pilot subsample, and the floor under a planned m: below it the
# within-sample variance that drives the bias correction means little
_MIN_SUBSAMPLE = 30

# A parameter-expanded cache anchored at the pilot mode, whatever its order,
# is rebuilt at the full-data Newton point while a _MIN_SUBSAMPLE-row
# order-2 difference estimate about that point has a variance of log L-hat
# above _CENTRE_VAR, in at most _CENTRE_BUILDS builds.  A chain's efficiency
# falls about as exp(-variance) for a small variance, so 0.01 costs it about
# 1%; on the n = 1e6, d = 6 benchmark data the pilot centre, which this test
# puts at 0.38, cost 14% of the minimum ESS.
_CENTRE_VAR = 0.01
_CENTRE_BUILDS = 3


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def config_comment(cfg: dict) -> str:
    return "; ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config", f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("set", f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Config access helpers
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """float(text), rejecting nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def parse_floats(text: str, key: str = "value") -> np.ndarray:
    """Comma-separated finite numbers, from a config value or a CLI option;
    ConfigError naming `key` otherwise."""
    try:
        return np.array([_finite(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(key, f"expected comma-separated numbers, got {text!r}") from None


def parse_ints(text: str, key: str = "value") -> list[int]:
    """Comma-separated integers, from a config value or a CLI option;
    ConfigError naming `key` otherwise."""
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(key, f"expected comma-separated integers, got {text!r}") from None


_EXPECTED = {int: "an integer", float: "a number", parse_floats: "comma-separated numbers"}


def _get(cfg, key, parse=str, default=None, required=False, choices=None):
    """cfg[key] parsed by `parse` (int, float, parse_floats or str) and
    checked against `choices`; `default` when the key is absent.  Numbers
    must be finite."""
    if key not in cfg:
        if required:
            raise ConfigError(key, "required field is missing")
        return default
    raw = cfg[key]
    try:
        value = _finite(raw) if parse is float else parse(raw)
    except ValueError:
        raise ConfigError(key, f"expected {_EXPECTED[parse]}, got {raw!r}") from None
    if choices is not None and value not in choices:
        raise ConfigError(key, f"expected one of {sorted(choices)}, got {value!r}")
    return value


# every key that `resolve`, `build_dataset` or `plan_table` reads or echoes;
# a key of another sampler is accepted, so one config can switch samplers
CONFIG_KEYS = frozenset({
    "model", "data", "simulate_n", "simulate_theta", "simulate_seed", "simulate_law",
    "sampler", "iterations", "burn_in", "seed", "chains", "theta0",
    "cv", "order", "expansion", "newton_rebuilds", "centroids", "cluster_seed",
    "kmeans_converged",
    "m", "sigma2_target", "plan_degenerate", "plan_floored",
    "estimator", "dependence", "phi", "blocks", "lambda", "m_b", "a",
    "epsilon", "leapfrog_steps", "variance_grad", "kappa", "omega", "proposal_kind",
})


def _check_keys(cfg):
    """Raise ConfigError naming the first key outside CONFIG_KEYS: a
    misspelled key would otherwise leave its field at the default."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")


def _take(cfg, resolved, key, parse=str, default=None, required=False, choices=None):
    """`_get`, echoing the value into `resolved` unless it is None."""
    value = _get(cfg, key, parse, default, required, choices)
    if value is not None:
        resolved[key] = _fmt(value)
    return value


# ---------------------------------------------------------------------------
# Resolution: config dict -> runnable plan + fully-resolved echo
# ---------------------------------------------------------------------------

@dataclass
class RunPlan:
    model: ModelSpec
    dataset: Dataset
    sampler: str
    theta0: np.ndarray
    n_iter: int
    burn_in: int
    seed: int
    chains: int
    proposal: ProposalConfig | None = None
    hmc: HmcConfig | None = None
    dependence: DependenceConfig | None = None
    estimator: object = None
    cache: object = None
    m: int | None = None
    include_variance_grad: bool = True


def build_dataset(cfg: dict) -> tuple[Dataset, dict]:
    resolved = {}
    if "data" in cfg:
        return load_dataset(_take(cfg, resolved, "data")), resolved
    if "simulate_n" not in cfg:
        raise ConfigError("data", "provide a dataset path or simulate_n/simulate_theta")
    n = _take(cfg, resolved, "simulate_n", int)
    theta = _take(cfg, resolved, "simulate_theta", parse_floats, required=True)
    sim_seed = _take(cfg, resolved, "simulate_seed", int, default=EXAMPLE_SEED)
    law = _take(cfg, resolved, "simulate_law", default="standard_normal",
                choices={"standard_normal", "uniform"})
    return simulate_poisson(n, theta, covariate_law=law, seed=sim_seed), resolved


class _PilotMode:
    """The pilot posterior mode, found on first use only, so a pilot theta0
    and a pilot expansion point share one Newton run.  Re-centring a cache
    anchored there (`_centred_cache`) moves `point` to the cache's final centre,
    where a pilot theta0 then starts."""

    def __init__(self, model: ModelSpec, dataset: Dataset, seed):
        self._args = model, dataset, seed
        self.point = None

    def __call__(self) -> np.ndarray:
        if self.point is None:
            model, dataset, seed = self._args
            self.point = select_expansion_point(model, dataset,
                                                seed=chain_seed(seed, _TAG_EXPANSION))
        return self.point


def _build_cache(cfg, model, dataset, seed, resolved, pilot,
                 kinds=frozenset({"param", "data", "exact"})):
    """The control variates of a run, for responses already validated."""
    kind = _take(cfg, resolved, "cv", default="param", choices=kinds)
    if kind == "exact":
        return ExactControlVariate(model, dataset)
    order = _take(cfg, resolved, "order", int, default=2)
    if order not in (0, 1, 2):
        raise ConfigError("order", "must be 0, 1 or 2")
    if kind == "param":
        how = cfg.get("expansion", "pilot")
        if how in ("pilot", "exact"):
            cache = _centred_cache(model, dataset, pilot(), None if how == "exact" else seed,
                                   resolved)
            # every order holds the moments of the order-2 build
            cache.order, pilot.point = order, cache.expansion_point
        else:
            point = _get(cfg, "expansion", parse_floats)
            if point.size != model.dim(dataset):
                raise ConfigError("expansion", "dimension mismatch with the model")
            cache = build_param_expanded(model, dataset, point, order=order, checked=True)
            # as written, so that a rerun from a re-centred run's echo echoes it
            _take(cfg, resolved, "newton_rebuilds", int)
        # a rerun from the echo builds this cache, bit for bit, with no re-centring
        resolved["expansion"] = _fmt(cache.expansion_point)
        return cache
    K = _take(cfg, resolved, "centroids", int, default=75)
    cseed = _take(cfg, resolved, "cluster_seed", int, default=seed)
    clustering = kmeans_cluster(dataset, K, seed=cseed)
    if not clustering.converged:
        resolved["kmeans_converged"] = "0"
    return build_data_expanded(model, dataset, clustering, order=order)


def laplace_covariance(model: GlmModel, dataset: Dataset, center: np.ndarray,
                       cache=None) -> np.ndarray:
    """Inverse negative curvature of the log-posterior at a central point,
    from the summed Hessian of one full-data pass there (`taylor_sums`).  A
    parameter-expanded cache of any order anchored exactly at `center` holds
    that Hessian, from the same pass, so it is read from there instead; any
    other cache is ignored."""
    if isinstance(cache, ParamExpandedCache) and np.array_equal(cache.expansion_point, center):
        H = cache.sum_hess
    else:
        H = model.taylor_sums(center, dataset)[3]
    return np.linalg.inv(-posterior_hessian(model, H))


def _gaussian_points(center: np.ndarray, cov: np.ndarray, count: int, seed) -> np.ndarray:
    L = np.linalg.cholesky(cov)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return center + rng.standard_normal((count, center.size)) @ L.T


def laplace_typical_points(model: ModelSpec, dataset: Dataset, center: np.ndarray,
                           count: int, seed, cache=None) -> np.ndarray:
    """Draws from the Gaussian (mode, inverse curvature) approximation; used
    to evaluate planning variances where the chain actually lives."""
    return _gaussian_points(center, laplace_covariance(model, dataset, center, cache),
                            count, seed)


def _planning_center(cache, pilot) -> np.ndarray:
    """Where planning measures the differences and a Laplace proposal reads
    its shape: the cache's expansion point, else the pilot posterior mode;
    never the chain's start point."""
    center = getattr(cache, "expansion_point", None)
    return pilot() if center is None else center


def _sigma2_at(model: ModelSpec, dataset: Dataset, cache, center: np.ndarray,
               cov: np.ndarray, seed) -> float:
    """Population variance of the differences from a pilot subsample,
    averaged over 5 draws from N(center, cov)."""
    # with replacement, so fewer than _MIN_SUBSAMPLE rows still give a full pilot
    pilot = max(_MIN_SUBSAMPLE, min(dataset.n, int(np.ceil(10.0 * np.sqrt(dataset.n)))))
    thetas = _gaussian_points(center, cov, 5, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return estimate_sigma2_pilot(model, cache, dataset, thetas, pilot, rng)


def _pilot_sigma2(model: ModelSpec, dataset: Dataset, cache, center: np.ndarray,
                  seed) -> float:
    """Population variance of the differences from a pilot subsample,
    averaged over draws from the Laplace approximation at `center`."""
    return _sigma2_at(model, dataset, cache, center,
                      laplace_covariance(model, dataset, center, cache),
                      chain_seed(seed, _TAG_PLANNING))


def _centred_cache(model: GlmModel, dataset: Dataset, point: np.ndarray, seed,
                   resolved) -> ParamExpandedCache:
    """The order-2 cache built at `point`, rebuilt at the Newton point
    t = c - H^-1 g of the log-posterior at its centre c, read from its own
    totals with no data pass (`newton_point`), while c costs variance: while
    a _MIN_SUBSAMPLE-row difference estimate has Var(log L-hat) =
    n^2 sigma2_d / _MIN_SUBSAMPLE above _CENTRE_VAR, sigma2_d measured at
    draws from N(t, -H^-1), in at most _CENTRE_BUILDS builds.  With seed None
    (`expansion = exact`) it is rebuilt while t - c is at least _NEWTON_TOL
    in max norm, in at most _NEWTON_STEPS builds.  The old cache is dropped
    before each rebuild, the last build is the cache, and a rebuild is echoed.
    Every order holds its moments, so orders 0 and 1 take it as it is."""
    cache = build_param_expanded(model, dataset, point, order=2, checked=True)
    exact = seed is None
    for rebuilds in range(1, _NEWTON_STEPS if exact else _CENTRE_BUILDS):
        c = cache.expansion_point
        t, H = newton_point(model, c, cache.sum_grad, cache.sum_hess)
        if exact:
            moved = np.all(np.isfinite(t)) and np.max(np.abs(t - c)) >= _NEWTON_TOL
        else:
            # a non-finite cost (an overflowed remainder, or t itself) is no
            # ground for a rebuild
            cost = dataset.n**2 / _MIN_SUBSAMPLE * _sigma2_at(
                model, dataset, cache, t, np.linalg.inv(-H), chain_seed(seed, _TAG_CENTRE))
            moved = math.isfinite(cost) and cost > _CENTRE_VAR
        if not moved:
            break
        cache = None  # dropped before the pass that builds the next one
        cache = build_param_expanded(model, dataset, t, order=2, checked=True)
        resolved["newton_rebuilds"] = str(rebuilds)
    return cache


def _resolve_m(cfg, model, dataset, cache, seed, resolved, pilot) -> int:
    if "m" in cfg:
        m = _take(cfg, resolved, "m", int)
        _get(cfg, "sigma2_target", float)
        # keep planning fields in the echo as written, so rerunning an
        # echoed config reproduces it byte-for-byte
        for key in ("sigma2_target", "plan_degenerate", "plan_floored"):
            _take(cfg, resolved, key)
        return m
    target = _take(cfg, resolved, "sigma2_target", float)
    if target is None:
        raise ConfigError("m", "provide m or sigma2_target")
    if target <= 0:
        raise ConfigError("sigma2_target", "target variance must be positive")
    sigma2 = _pilot_sigma2(model, dataset, cache, _planning_center(cache, pilot), seed)
    m, degenerate, floored = _planned_m(dataset.n, sigma2, target)
    if degenerate:
        resolved["plan_degenerate"] = "1"
    if floored:
        resolved["plan_floored"] = "1"
    resolved["m"] = str(m)
    return m


def _planned_m(n: int, sigma2: float, target: float) -> tuple[int, bool, bool]:
    """(m, degenerate, floored): the planned subsample size, raised to
    _MIN_SUBSAMPLE and flagged when it was.  `run` samples with this m and
    `plan` reports it."""
    m, degenerate = plan_subsample_size(PlanningInputs(n, sigma2, target))
    return max(m, _MIN_SUBSAMPLE), degenerate, m < _MIN_SUBSAMPLE


def resolve(cfg: dict) -> tuple[RunPlan, dict]:
    """Validate against the sampler requirement matrix and resolve defaults."""
    resolved = {}
    model = MODELS[_take(cfg, resolved, "model", required=True, choices=set(MODELS))]()
    dataset, ds_resolved = build_dataset(cfg)
    resolved.update(ds_resolved)
    model.check_response(dataset.y)

    sampler = _take(cfg, resolved, "sampler", required=True,
                    choices={"mh", "pmmh", "hmc", "hmc_ecs"})
    n_iter = _take(cfg, resolved, "iterations", int, required=True)
    if n_iter < 1:
        raise ConfigError("iterations", "must be >= 1")
    burn_in = _take(cfg, resolved, "burn_in", int, default=0)
    if not 0 <= burn_in <= n_iter - 2:
        raise ConfigError("burn_in", "must leave 2 draws: 0 <= burn_in <= iterations - 2")
    seed = _take(cfg, resolved, "seed", int, default=0)
    chains = _take(cfg, resolved, "chains", int, default=1)
    if chains < 1:
        raise ConfigError("chains", "must be >= 1")

    d = model.dim(dataset)
    pilot = _PilotMode(model, dataset, seed)
    theta0 = None
    if cfg.get("theta0", "pilot") != "pilot":
        theta0 = _get(cfg, "theta0", parse_floats)
        if theta0.size != d:
            raise ConfigError("theta0", f"expected {d} coordinates")

    plan = RunPlan(model=model, dataset=dataset, sampler=sampler, theta0=theta0,
                   n_iter=n_iter, burn_in=burn_in, seed=seed, chains=chains)

    if sampler in ("hmc", "hmc_ecs"):
        plan.hmc = HmcConfig(
            step_size=_take(cfg, resolved, "epsilon", float, required=True),
            n_steps=_take(cfg, resolved, "leapfrog_steps", int, required=True))

    if sampler in ("pmmh", "hmc_ecs"):
        est_name = "difference" if sampler == "hmc_ecs" else _take(
            cfg, resolved, "estimator", required=True, choices={"difference", "block_poisson"})
        dep_kind = _take(cfg, resolved, "dependence", default="independent",
                         choices={"independent", "cpm", "bpm"})
        if dep_kind == "cpm":
            plan.dependence = DependenceConfig(
                kind="cpm", ar_coef=_take(cfg, resolved, "phi", float, required=True))
        elif dep_kind == "bpm":
            plan.dependence = DependenceConfig(
                kind="bpm", n_blocks=_take(cfg, resolved, "blocks", int, required=True))
        else:
            plan.dependence = DependenceConfig()
        # built before the proposal, whose Laplace shape at the expansion
        # point then reads the summed Hessian from the cache
        plan.cache = _build_cache(cfg, model, dataset, seed, resolved, pilot,
                                  {"param", "exact"} if sampler == "hmc_ecs"
                                  else {"param", "data", "exact"})
        if est_name == "difference":
            plan.estimator = DifferenceConfig(
                m=_resolve_m(cfg, model, dataset, plan.cache, seed, resolved, pilot))
            if dep_kind == "bpm" and plan.dependence.n_blocks > plan.estimator.m:
                raise ConfigError("blocks", "block count must not exceed the subsample "
                                  f"size m = {plan.estimator.m}")
        else:
            if dep_kind == "cpm":
                raise ConfigError("dependence", "cpm does not apply to the product estimator")
            lam = _take(cfg, resolved, "lambda", int, required=True)
            m_b = _take(cfg, resolved, "m_b", int, required=True)
            if lam < 1:
                raise ConfigError("lambda", "must be >= 1")
            if m_b < 1:
                raise ConfigError("m_b", "must be >= 1")
            if dep_kind == "bpm" and lam % plan.dependence.n_blocks != 0:
                raise ConfigError("blocks", "block count must divide lambda")
            bound = _take(cfg, resolved, "a", float)
            if bound is None:
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(chain_seed(seed, _TAG_BOUND))))
                pilot_m = min(dataset.n, max(_MIN_SUBSAMPLE, 10 * m_b))
                bound = default_soft_bound(model, plan.cache, dataset,
                                           _planning_center(plan.cache, pilot),
                                           lam, pilot_m, rng)
                resolved["a"] = _fmt(bound)
            plan.estimator = BlockPoissonConfig(n_products=lam, batch_size=m_b, bound=bound)

    if theta0 is None:
        # after the cache build, which may have moved the pilot mode
        theta0 = plan.theta0 = pilot()
    resolved["theta0"] = _fmt(theta0)

    if sampler == "hmc_ecs":
        plan.m = plan.estimator.m
        plan.include_variance_grad = _get(cfg, "variance_grad", default="1",
                                          choices={"0", "1", "false", "true"}) in ("1", "true")
        resolved["variance_grad"] = "1" if plan.include_variance_grad else "0"

    if sampler in ("mh", "pmmh"):
        kind = _take(cfg, resolved, "proposal_kind", default="rwm",
                     choices={"rwm", "independence"})
        # 2.38 / sqrt(d) scales a random walk; an independence proposal is
        # centred at the mode and drawn at the Laplace scale, not at theta0
        independence = kind == "independence"
        kappa = _take(cfg, resolved, "kappa", float,
                      default=1.0 if independence else 2.38 / math.sqrt(d))
        omega_kind = _take(cfg, resolved, "omega",
                           default="laplace" if independence else "identity",
                           choices={"identity", "laplace"})
        laplace = omega_kind == "laplace"
        center = _planning_center(plan.cache, pilot) if independence or laplace else None
        plan.proposal = ProposalConfig(
            kind=kind, step_scale=kappa,
            shape=laplace_covariance(model, dataset, center, plan.cache)
            if laplace else None,
            center=center if independence else None)

    # after every field is read, so a field's own error names it first
    _check_keys(cfg)
    return plan, resolved


def run_chain(plan: RunPlan, chain_id: int) -> ChainTrace:
    # SeedSequence zero-pads [seed, 0] to seed: chain 0 is the single-chain run
    seed = chain_seed(plan.seed, chain_id)
    if plan.sampler == "mh":
        return mh_run(plan.model, plan.dataset, plan.proposal, plan.theta0,
                      plan.n_iter, seed)
    if plan.sampler == "pmmh":
        return pmmh_run(plan.model, plan.dataset, plan.cache, plan.estimator,
                        plan.proposal, plan.dependence, plan.theta0, plan.n_iter, seed)
    if plan.sampler == "hmc":
        return hmc_run(plan.model, plan.dataset, plan.hmc, plan.theta0,
                       plan.n_iter, seed)
    return hmc_ecs_run(plan.model, plan.dataset, plan.cache, plan.hmc, plan.m,
                       plan.theta0, plan.n_iter, seed, dependence=plan.dependence,
                       include_variance_grad=plan.include_variance_grad)


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def write_trace_csv(trace: ChainTrace, path, comment: str | None = None):
    d = trace.draws.shape[1]
    write_csv(path, ["iter", *(f"theta_{j}" for j in range(1, d + 1)),
                     "accept", "loglik_est", "sign"],
              [range(1, trace.n_iter + 1), *trace.draws.T, trace.accept,
               trace.loglik_est, trace.sign], comment)


def read_trace_csv(path) -> ChainTrace:
    """A trace written by write_trace_csv, its columns found by header
    name: theta_1, theta_2, ..., accept, loglik_est and sign.  Other
    columns, and their order, do not matter.  The rows are read in the
    dataset dialect of `load_dataset`, and a malformed one raises
    CsvParseError naming its file line."""
    with open(path, encoding="utf-8") as fh:
        # the header is the first line that is neither blank nor a '#' comment
        for head, header in enumerate(fh, start=1):
            if header.strip() and not header.startswith("#"):
                break
        else:
            raise DomainError(f"{path}: no trace rows")
    names = header.strip().split(",")
    at = {name: j for j, name in enumerate(names)}
    thetas = []
    while f"theta_{len(thetas) + 1}" in at:
        thetas.append(at[f"theta_{len(thetas) + 1}"])
    missing = [name for name in ("theta_1", "accept", "loglik_est", "sign") if name not in at]
    if missing:
        raise DomainError(f"{path}: trace has no {', '.join(missing)} column")
    try:
        data = parse(path, head)
    except ValueError as exc:
        _raise_first_bad_row(path, len(names), str(exc), head)
    if data.shape[0] == 0:
        raise DomainError(f"{path}: no trace rows")
    if data.shape[1] != len(names):
        _raise_first_bad_row(path, len(names),
                             f"expected {len(names)} columns, got {data.shape[1]}", head)
    return ChainTrace(
        draws=data[:, thetas],
        accept=data[:, at["accept"]].astype(bool),
        loglik_est=data[:, at["loglik_est"]],
        sign=data[:, at["sign"]].astype(np.int8),
        u_accept=np.zeros(data.shape[0], dtype=bool),
        meta={"source": str(path)},
    )


def _git_hash() -> str:
    """The commit of the checkout this package runs from, whatever the
    working directory; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_manifest(out_dir, resolved: dict, wall_time: float, extra: dict | None = None):
    manifest = {
        "config": resolved,
        "git_hash": _git_hash(),
        "wall_time_seconds": wall_time,
        "version": __version__,
        "argv": sys.argv,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def run_experiment(cfg: dict, out_dir) -> dict:
    """Resolve, run all chains, and write trace/summary/config/manifest files."""
    t0 = time.perf_counter()
    plan, resolved = resolve(cfg)
    os.makedirs(out_dir, exist_ok=True)
    comment = config_comment(resolved)

    if plan.chains == 1:
        traces = [run_chain(plan, 0)]
    else:
        # a forked pool starts all its workers at once; map keeps chain order
        workers = min(plan.chains, models._usable_cores())
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_chain, [plan] * plan.chains, range(plan.chains)))

    paths = {"out_dir": out_dir}
    for k, trace in enumerate(traces):
        suffix = "" if plan.chains == 1 else f"_chain{k}"
        trace_path = os.path.join(out_dir, f"trace{suffix}.csv")
        write_trace_csv(trace, trace_path, comment)
        rows = summarize(trace, burn_in=plan.burn_in)
        summary_path = os.path.join(out_dir, f"summary{suffix}.csv")
        write_summary_csv(rows, summary_path, comment)
        paths[f"trace{suffix}"] = trace_path
        paths[f"summary{suffix}"] = summary_path

    echo_path = os.path.join(out_dir, "config_resolved.cfg")
    with open(echo_path, "w", encoding="utf-8") as fh:
        for key in sorted(resolved):
            fh.write(f"{key} = {resolved[key]}\n")
    paths["config"] = echo_path
    write_manifest(out_dir, resolved, time.perf_counter() - t0,
                   {"chains": [trace.meta for trace in traces]})
    return paths


# ---------------------------------------------------------------------------
# Figure data generators
# ---------------------------------------------------------------------------

def figure1_table(n_grid=None, sigma2_values=(0.01, 0.1), target: float = 3.3):
    """Exact closed-form sampling fractions m/n for without-replacement SRS."""
    if n_grid is None:
        n_grid = np.unique(np.logspace(2, 8, 61).astype(int))
    rows = []
    for sigma2 in sigma2_values:
        for n in n_grid:
            frac = wor_sampling_fraction(int(n), float(sigma2), target)
            rows.append({"sigma2_pop": float(sigma2), "n": int(n),
                         "fraction": frac, "m": frac * int(n)})
    return rows


def example_dataset(n: int = EXAMPLE_N, seed: int = EXAMPLE_SEED) -> Dataset:
    """The running Poisson-regression example: theta = (1, 0.75), x ~ N(0, 1)."""
    return simulate_poisson(n, EXAMPLE_THETA, seed=seed)


def sphere_direction(d: int, seed) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def figure234_tables(cv_kind: str = "param", radius_list=(0.025, 0.1, 0.25),
                     order_list=(0, 1, 2), K_list=(75,), seed: int = EXAMPLE_SEED,
                     dataset: Dataset | None = None):
    """Per-observation (ell_i, q_i) scatter data plus the planned subsample
    size that would hit estimator variance 3.3 in each panel."""
    if cv_kind not in ("param", "data"):
        raise ConfigError("cv", "cv must be 'param' or 'data'")
    model = MODELS["poisson"]()
    dataset = dataset if dataset is not None else example_dataset(seed=seed)
    # the full-data mode, by Newton steps on cache totals from the pilot mode
    centred = _centred_cache(model, dataset, select_expansion_point(
        model, dataset, seed=chain_seed(seed, _TAG_EXPANSION)), None, {})
    center = centred.expansion_point
    direction = sphere_direction(model.dim(dataset), chain_seed(seed, _TAG_DIRECTIONS))

    caches = {}
    if cv_kind == "param":
        # every order reads the moments of the last centring build
        for order in order_list:
            caches[(order, 0)] = replace(centred, order=order)
    else:
        for K in K_list:
            clustering = kmeans_cluster(dataset, K, seed=seed)
            for order in order_list:
                caches[(order, K)] = build_data_expanded(model, dataset, clustering,
                                                         order=order)

    all_idx = np.arange(dataset.n)
    pairs, panels = [], []
    for radius in radius_list:
        theta = center + radius * direction
        ell = model.loglik(theta, dataset)
        for (order, K), cache in caches.items():
            q = cache.values_at(theta, all_idx)
            d_i = ell - q
            sigma2_d = float(np.mean((d_i - d_i.mean()) ** 2))
            m_opt = plan_subsample_size(PlanningInputs(dataset.n, sigma2_d, 3.3))[0]
            panels.append({"cv": cv_kind, "order": order, "centroids": K,
                           "radius": float(radius), "m_opt": m_opt,
                           "sigma2_d": sigma2_d})
            for i in range(dataset.n):
                pairs.append({"cv": cv_kind, "order": order, "centroids": K,
                              "radius": float(radius), "i": i,
                              "ell": float(ell[i]), "q": float(q[i])})
    return pairs, panels


def figure5_study(sigma2_targets=(0.0, 1.0, 10.0, 50.0), n_iter: int = 20000,
                  seed: int = 0, out_dir=None, cv_order: int = 0,
                  dataset: Dataset | None = None, max_lag: int = 200):
    """One chain per target estimator variance, all sharing the theta-proposal
    stream: target 0 is full-data MH, the rest are pseudo-marginal runs at
    the planned subsample size."""
    model = MODELS["poisson"]()
    dataset = dataset if dataset is not None else example_dataset(seed=EXAMPLE_SEED)
    center = select_expansion_point(model, dataset, seed=chain_seed(seed, _TAG_EXPANSION))
    cache = build_param_expanded(model, dataset, center, order=cv_order)
    # proposal shaped to the posterior so the variance ladder, not the step
    # size, drives the mixing differences across rows
    proposal = ProposalConfig(shape=laplace_covariance(model, dataset, center, cache))
    sigma2_d = _pilot_sigma2(model, dataset, cache, center, seed)

    sizes = [dataset.n if target == 0.0
             else plan_subsample_size(PlanningInputs(dataset.n, sigma2_d, target))[0]
             for target in sigma2_targets]
    for target, m in zip(sigma2_targets, sizes):
        if target != 0.0 and m < 2:  # one draw's sample variance is identically 0
            raise ConfigError("targets", f"target {target:g} plans m = {m}, below the 2 "
                              "draws a sample variance needs")
    coord = min(1, model.dim(dataset) - 1)
    results = []
    for target, m in zip(sigma2_targets, sizes):
        if target == 0.0:
            trace = mh_run(model, dataset, proposal, center, n_iter, seed)
        else:
            trace = pmmh_run(model, dataset, cache, DifferenceConfig(m), proposal,
                             DependenceConfig(), center, n_iter, seed)
        burn = min(n_iter // 10, 2000)
        est = iact(trace.draws[:, coord], burn_in=burn)
        acf = autocorrelations(trace.draws[burn:, coord], max_lag=max_lag)
        results.append({"target": float(target), "m": int(m), "trace": trace,
                        "iact": est.value, "acf": acf,
                        "accept_rate": float(np.mean(trace.accept))})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        comment = config_comment({"targets": ",".join(str(t) for t in sigma2_targets),
                                  "iterations": n_iter, "seed": seed,
                                  "cv_order": cv_order, "sigma2_d": repr(sigma2_d)})
        for res in results:
            tag = ("%g" % res["target"]).replace(".", "p")
            write_trace_csv(res["trace"], os.path.join(out_dir, f"trace_var{tag}.csv"),
                            comment)
            write_csv(os.path.join(out_dir, f"acf_var{tag}.csv"), ["lag", "acf"],
                      [range(res["acf"].size), res["acf"]], comment)
        keys = ("target", "m", "iact", "accept_rate")
        write_csv(os.path.join(out_dir, "iact_table.csv"), [*keys, "ct"],
                  [[res[key] for res in results] for key in keys]
                  + [[res["iact"] * res["m"] for res in results]], comment)
    return results


def plan_table(cfg: dict, targets=(1.0, 3.3)) -> list[dict]:
    """Planning rows (target variance -> subsample size) for a model/CV config."""
    model = MODELS[_get(cfg, "model", required=True, choices=set(MODELS))]()
    dataset, _ = build_dataset(cfg)
    seed = _get(cfg, "seed", int, default=0)
    model.check_response(dataset.y)
    pilot = _PilotMode(model, dataset, seed)
    cache = _build_cache(cfg, model, dataset, seed, {}, pilot)
    _check_keys(cfg)
    sigma2_d = _pilot_sigma2(model, dataset, cache, _planning_center(cache, pilot), seed)
    rows = []
    for target in targets:
        m, degenerate, floored = _planned_m(dataset.n, sigma2_d, target)
        rows.append({"target": float(target), "sigma2_d": sigma2_d, "m": m,
                     "degenerate": int(degenerate), "floored": int(floored),
                     "wor_m": optimal_m_srs_wor(dataset.n, sigma2_d, target)})
    return rows
