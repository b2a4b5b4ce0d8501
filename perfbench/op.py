"""One benchmark operation, in its own process: one `submcmc run` of a
workload through `submcmc.cli.main`, timed from outside, then its checks.

    python3 perfbench/op.py --workload NAME --seed N --op K --trace 0|1
                            --out DIR --result FILE [--smoke]

Run from the root of a checkout; the package is imported from its `src`.
Writes one JSON object to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_package() -> dict:
    """The checkout's own submcmc, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import submcmc
    from submcmc import (cli, control_variates, diagnostics, estimators, experiments,
                         models, samplers)
    if not os.path.abspath(submcmc.__file__).startswith(src + os.sep):
        raise ImportError(f"submcmc imported from {submcmc.__file__}, not {src}")
    return {"cli": cli, "control_variates": control_variates, "diagnostics": diagnostics,
            "estimators": estimators, "experiments": experiments, "models": models,
            "samplers": samplers}


def cache_mb(cache) -> float:
    arrays = [getattr(cache, k, None) for k in ("ell", "grad", "hess")]
    return sum(a.nbytes for a in arrays if a is not None) / 2**20


def run_op(args) -> dict:
    import numpy as np

    import checks
    import tracer as tracing
    from workloads import make_workloads, simulate_tall

    pkg = import_package()
    wl = make_workloads(args.smoke)[args.workload]
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in wl.cfg.items())

    tracer = tracing.Tracer(pkg, keep=("experiments.resolve", "experiments.run_chain"))
    tracer.install(tracing.PHASES + (tracing.LAYERS if args.trace else ()))
    # untraced operations give the end-to-end rates, from iteration marks
    clock = None if args.trace else tracing.IterationClock(pkg, wl.work)
    if clock:
        clock.install()
    t0 = time.perf_counter()
    try:
        rc = pkg["cli"].main(["run", "--config", cfg_path, "--out", args.out])
        total_s = time.perf_counter() - t0
    finally:
        if clock:
            clock.uninstall()
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0:
        return {"ok": False, "error": f"submcmc run exited with {rc}"}

    plan, resolved = tracer.results["experiments.resolve"]
    trace = tracer.results["experiments.run_chain"]
    paths = {"trace": os.path.join(args.out, "trace.csv"),
             "summary": os.path.join(args.out, "summary.csv")}

    own_iact, ess_min, ct = checks.mixing(wl, trace)

    report = checks.Report()
    checks.check_posterior(report, wl, trace.draws, trace.sign)
    checks.check_artifacts(report, wl, trace, paths, resolved, own_iact)
    if wl.csv:
        # the benchmark's own copy of the data, not the program's parse of it
        y, X = simulate_tall(wl.n)
        report.check("dataset_parsed_exactly", np.array_equal(plan.dataset.y, y)
                     and np.array_equal(plan.dataset.X, X))
    else:
        y, X = plan.dataset.y, plan.dataset.X
    rng = np.random.default_rng([args.seed, args.op])
    rows = np.sort(rng.choice(np.arange(wl.burn_in, wl.iterations),
                              size=2 if wl.signed else 3, replace=False))
    checks.check_estimators(report, wl, pkg, plan, trace, y, X, rows, rng,
                            reps=120 if wl.signed else 400)

    result = {
        "ok": True,
        "checks": report.items,
        "trace_sha256": checks.file_sha256(paths["trace"]),
        "setup_s": tracer.total("experiments.resolve"),
        "total_s": total_s,
        "n_iter": trace.n_iter,
        "ess_min": ess_min,
        "ct": ct,
        "peak_rss_mb": peak_rss_mb,
        "missing": tracer.missing,
    }
    if clock:
        result["missing"] += clock.missing
    if clock and clock.ticks:
        chain_end = next(s[3] for s in tracer.spans if s[0] == "experiments.run_chain")
        result["fastest_iter_s"] = clock.fastest_iteration_s(wl.window, chain_end)
        result["loop_s"] = chain_end - clock.ticks[0]
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, trace.n_iter)
        layers["control_variates.cache_mb"] = cache_mb(plan.cache)
        layers["experiments.trace_csv_mb"] = os.path.getsize(paths["trace"]) / 2**20
        burn = wl.burn_in
        layers["samplers.accept_rate"] = float(np.mean(trace.accept[burn:]))
        layers["samplers.u_accept_rate"] = float(np.mean(trace.u_accept[burn:]))
        layers["samplers.sign_rate"] = float(np.mean(trace.sign[burn:] > 0))
        result["layers"] = layers
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_op(args)
    except Exception:  # the parent counts this operation as failed
        result = {"ok": False, "error": traceback.format_exc()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
