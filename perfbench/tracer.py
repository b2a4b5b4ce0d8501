"""Spans around the package's public functions, recorded from outside.

Each target is patched where its caller looks it up (`samplers.propose_u`,
not `estimators.propose_u`), so the program's own code is unchanged.  A
span records its name, start, end, parent span and a row count; spans stay
in memory until `write_spans` puts them in a file after the run.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Phase boundaries, timed in every run: (module, attribute, span name).
PHASES = (
    ("experiments", "resolve", "experiments.resolve"),
    ("experiments", "run_chain", "experiments.run_chain"),
    ("experiments", "write_trace_csv", "experiments.write_trace_csv"),
    ("experiments", "summarize", "diagnostics.summarize"),
    ("experiments", "write_manifest", "experiments.write_manifest"),
)

# Layer boundaries, traced only in the separate traced run.
LAYERS = (
    ("experiments", "load_dataset", "models.load_dataset"),
    ("experiments", "simulate_poisson", "models.simulate"),
    ("experiments", "select_expansion_point", "control_variates.select_expansion_point"),
    ("experiments", "build_param_expanded", "control_variates.build"),
    ("experiments", "laplace_covariance", "experiments.laplace_covariance"),
    ("experiments", "default_soft_bound", "estimators.default_soft_bound"),
    ("samplers", "difference_estimate", "estimators.difference_estimate"),
    ("samplers", "block_poisson_evaluate", "estimators.block_poisson_evaluate"),
    ("estimators", "differences", "estimators.differences"),
    ("samplers", "propose_u", "samplers.propose_u"),
    ("samplers", "subsampled_potential", "samplers.subsampled_potential"),
    ("samplers", "leapfrog", "samplers.leapfrog"),
    ("models", "PoissonRegression.loglik", "models.loglik"),
    ("models", "PoissonRegression.grad_theta", "models.grad_theta"),
    ("models", "PoissonRegression.hess_theta", "models.hess_theta"),
    ("control_variates", "ParamExpandedCache.values_at", "control_variates.values_at"),
    ("control_variates", "ParamExpandedCache.sum_values", "control_variates.sum_values"),
    ("control_variates", "ParamExpandedCache.grads_at", "control_variates.grads_at"),
    ("control_variates", "ParamExpandedCache.grad_sum", "control_variates.grad_sum"),
)

FULL_PASS = "models.full_pass"


def _model_span(name):
    """Model methods take (self, theta, dataset, idx=None): a call without
    indices is a full-data pass over n rows."""
    def name_rows(args, kwargs):
        dataset = args[2] if len(args) > 2 else kwargs["dataset"]
        idx = args[3] if len(args) > 3 else kwargs.get("idx")
        if idx is None:
            return FULL_PASS, dataset.n
        return name, int(np.size(idx))
    return name_rows


def _index_span(name):
    """Cache methods take (self, theta, idx)."""
    def name_rows(args, kwargs):
        idx = args[2] if len(args) > 2 else kwargs["idx"]
        return name, int(np.size(idx))
    return name_rows


_NAMERS = {
    "models.loglik": _model_span, "models.grad_theta": _model_span,
    "models.hess_theta": _model_span,
    "control_variates.values_at": _index_span, "control_variates.grads_at": _index_span,
}


class Tracer:
    """Installs span-recording wrappers and removes them again.

    spans[i] = [name, parent index or -1, start, end, rows]; times come
    from time.perf_counter.
    """

    def __init__(self, modules: dict, keep=()):
        self.modules = modules
        self.keep = set(keep)
        self.spans: list[list] = []
        self.results: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, targets):
        for module, attr, name in targets:
            namer = _NAMERS[name](name) if name in _NAMERS else None
            if not _patch(self.modules, module, attr,
                          lambda fn, name=name, namer=namer: self._wrap(name, fn, namer),
                          self._undo):
                self.missing.append(name)

    def uninstall(self):
        _restore(self._undo)

    def _wrap(self, name, fn, namer):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in self.keep
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, rows = namer(args, kwargs) if namer else (name, 0)
            span = [span_name, stack[-1] if stack else -1, clock(), 0.0, rows]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if keep:
                results[name] = out
            return out
        return traced

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,rows\n")
            for i, (name, parent, start, end, rows) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{rows}\n")


_ABSENT = object()


def _patch(modules: dict, module: str, attr: str, make, undo: list) -> bool:
    """Replace modules[module].attr (or a method, `Class.method`) by
    make(original) and note how to undo it; False if there is no target."""
    owner = modules.get(module)
    *cls, meth = attr.split(".")
    if owner is not None and cls:
        owner = getattr(owner, cls[0], None)
    fn = getattr(owner, meth, None) if owner is not None else None
    if not callable(fn):
        return False
    undo.append((owner, meth, owner.__dict__.get(meth, _ABSENT)))
    setattr(owner, meth, make(fn))
    return True


def _restore(undo: list):
    for owner, meth, original in reversed(undo):
        if original is _ABSENT:
            delattr(owner, meth)
        else:
            setattr(owner, meth, original)
    undo.clear()


# Called once at the top of every iteration by each kernel the workloads use.
ITERATION_START = ("samplers", "propose_u")


class IterationClock:
    """Marks the start of every chain iteration, for the end-to-end rates.

    A wrapper on `samplers.propose_u` records time.perf_counter and how many
    calls of the workload's work function (if it has one) came before.  One
    clock read and two list appends per call: under a microsecond against
    iterations of 100 us and more.  If the work function is gone, windows
    are timed per iteration instead.
    """

    def __init__(self, modules: dict, work=None):
        self.modules = modules
        self.work = work
        self.ticks: list[float] = []
        self.counts: list[int] = []
        self.missing: list[str] = []
        self._count = [0]
        self._undo: list[tuple] = []

    def install(self):
        ticks, counts, count, clock = self.ticks, self.counts, self._count, time.perf_counter

        def tick(fn):
            @functools.wraps(fn)
            def ticked(*args, **kwargs):
                ticks.append(clock())
                counts.append(count[0])
                return fn(*args, **kwargs)
            return ticked

        def counter(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
            return counted

        targets = [(ITERATION_START, tick)] + ([(self.work, counter)] if self.work else [])
        for (module, attr), make in targets:
            if not _patch(self.modules, module, attr, make, self._undo):
                self.missing.append(f"{module}.{attr}")
                if (module, attr) == self.work:
                    self.work = None

    def uninstall(self):
        _restore(self._undo)

    def fastest_iteration_s(self, window: int, end: float) -> float:
        """Seconds per iteration at the rate of the fastest run of `window`
        whole iterations; `end` is when the last iteration ended.

        With a work function, each window's time is taken per call of it
        and scaled back by the chain's mean calls per iteration, so windows
        of cheap iterations do not pass for fast ones.
        """
        t = np.append(self.ticks, end)[::window]
        if self.work is None:
            return float(np.diff(t).min()) / window
        c = np.append(self.counts, self._count[0])
        per_iteration = (c[-1] - c[0]) / len(self.ticks)
        dt, dc = np.diff(t), np.diff(c[::window])
        return float((dt[dc > 0] / dc[dc > 0]).min()) * per_iteration


def layer_metrics(spans: list[list], n_iter: int) -> dict[str, float]:
    """Per-layer figures from one traced run.

    Subsample-level calls (`*_us`, `*_calls`, `*_rows`) are counted inside
    `experiments.run_chain` only, so set-up passes do not mix into them.
    A `_us` figure is the mean inclusive duration of one call.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, rows in spans:
        if parent >= 0:
            child_time[parent] += end - start
    chain = [i for i, s in enumerate(spans) if s[0] == "experiments.run_chain"]
    lo, hi = (spans[chain[0]][2], spans[chain[0]][3]) if chain else (0.0, -1.0)

    every: dict[str, list] = {}
    sampling: dict[str, list] = {}
    for name, parent, start, end, rows in spans:
        for table in (every, sampling) if lo <= start and end <= hi else (every,):
            entry = table.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += rows

    def total_s(name):
        return every.get(name, [0, 0.0, 0])[1]

    def calls(name):
        return sampling.get(name, [0, 0.0, 0])[0]

    def mean_us(name):
        c, t, _ = sampling.get(name, [0, 0.0, 0])
        return 1e6 * t / c if c else 0.0

    # mini-batches per estimator evaluation: difference calls made inside
    # the estimator spans over the number of estimator spans
    estimator_spans = {i for i, s in enumerate(spans)
                       if s[0] in ("estimators.difference_estimate",
                                   "estimators.block_poisson_evaluate")}
    minibatches = sum(1 for s in spans
                      if s[0] == "estimators.differences" and s[1] in estimator_spans)

    out = {
        "models.load_dataset_s": total_s("models.load_dataset"),
        "models.simulate_s": total_s("models.simulate"),
        "models.full_pass_s": total_s(FULL_PASS),
        "models.full_pass_rows": every.get(FULL_PASS, [0, 0.0, 0])[2],
        "control_variates.select_expansion_point_s":
            total_s("control_variates.select_expansion_point"),
        "control_variates.build_s": total_s("control_variates.build"),
        "experiments.laplace_covariance_s": total_s("experiments.laplace_covariance"),
        "experiments.laplace_covariance_calls":
            every.get("experiments.laplace_covariance", [0])[0],
        "estimators.default_soft_bound_s": total_s("estimators.default_soft_bound"),
        "models.loglik_us": mean_us("models.loglik"),
        "models.loglik_calls": calls("models.loglik"),
        "models.loglik_rows": sampling.get("models.loglik", [0, 0.0, 0])[2],
        "models.grad_theta_us": mean_us("models.grad_theta"),
        "models.grad_theta_calls": calls("models.grad_theta"),
        "control_variates.values_at_us": mean_us("control_variates.values_at"),
        "control_variates.values_at_calls": calls("control_variates.values_at"),
        "control_variates.sum_values_us": mean_us("control_variates.sum_values"),
        "control_variates.grads_at_us": mean_us("control_variates.grads_at"),
        "control_variates.grad_sum_us": mean_us("control_variates.grad_sum"),
        "estimators.difference_estimate_us": mean_us("estimators.difference_estimate"),
        "estimators.difference_estimate_calls": calls("estimators.difference_estimate"),
        "estimators.block_poisson_evaluate_us": mean_us("estimators.block_poisson_evaluate"),
        "estimators.block_poisson_evaluate_calls":
            calls("estimators.block_poisson_evaluate"),
        "estimators.minibatches_per_eval":
            minibatches / len(estimator_spans) if estimator_spans else 0.0,
        "samplers.propose_u_us": mean_us("samplers.propose_u"),
        "samplers.subsampled_potential_us": mean_us("samplers.subsampled_potential"),
        "samplers.subsampled_potential_calls": calls("samplers.subsampled_potential"),
        "samplers.leapfrog_us": mean_us("samplers.leapfrog"),
        "samplers.self_us_per_iter":
            1e6 * sum(spans[i][3] - spans[i][2] - child_time[i] for i in chain) / n_iter,
        "experiments.write_trace_csv_s": total_s("experiments.write_trace_csv"),
        "experiments.write_manifest_s": total_s("experiments.write_manifest"),
        "diagnostics.summarize_s": total_s("diagnostics.summarize"),
    }
    return out


# The span each per-layer figure needs.  A figure whose span could not be
# installed is reported missing instead of as a misleading zero.
LAYER_SPANS = {
    "models.load_dataset_s": "models.load_dataset",
    "models.simulate_s": "models.simulate",
    "models.full_pass_s": "models.loglik",
    "models.full_pass_rows": "models.loglik",
    "control_variates.select_expansion_point_s":
        "control_variates.select_expansion_point",
    "control_variates.build_s": "control_variates.build",
    "control_variates.cache_mb": "control_variates.build",
    "experiments.laplace_covariance_s": "experiments.laplace_covariance",
    "experiments.laplace_covariance_calls": "experiments.laplace_covariance",
    "estimators.default_soft_bound_s": "estimators.default_soft_bound",
    "models.loglik_us": "models.loglik",
    "models.loglik_calls": "models.loglik",
    "models.loglik_rows": "models.loglik",
    "models.grad_theta_us": "models.grad_theta",
    "models.grad_theta_calls": "models.grad_theta",
    "control_variates.values_at_us": "control_variates.values_at",
    "control_variates.values_at_calls": "control_variates.values_at",
    "control_variates.sum_values_us": "control_variates.sum_values",
    "control_variates.grads_at_us": "control_variates.grads_at",
    "control_variates.grad_sum_us": "control_variates.grad_sum",
    "estimators.difference_estimate_us": "estimators.difference_estimate",
    "estimators.difference_estimate_calls": "estimators.difference_estimate",
    "estimators.block_poisson_evaluate_us": "estimators.block_poisson_evaluate",
    "estimators.block_poisson_evaluate_calls": "estimators.block_poisson_evaluate",
    "estimators.minibatches_per_eval": "estimators.differences",
    "samplers.propose_u_us": "samplers.propose_u",
    "samplers.subsampled_potential_us": "samplers.subsampled_potential",
    "samplers.subsampled_potential_calls": "samplers.subsampled_potential",
    "samplers.leapfrog_us": "samplers.leapfrog",
    "samplers.self_us_per_iter": "experiments.run_chain",
    "samplers.accept_rate": "experiments.run_chain",
    "samplers.u_accept_rate": "experiments.run_chain",
    "samplers.sign_rate": "experiments.run_chain",
    "experiments.write_trace_csv_s": "experiments.write_trace_csv",
    "experiments.trace_csv_mb": "experiments.write_trace_csv",
    "experiments.write_manifest_s": "experiments.write_manifest",
    "diagnostics.summarize_s": "diagnostics.summarize",
    "trace.overhead_pct": "experiments.run_chain",
}
