"""Benchmark of `submcmc run` on tall data, end to end and per module.

    python3 perfbench/run.py --workload pmmh-tall --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each operation is one `submcmc run` of the
workload in a fresh child process (perfbench/op.py) followed by its output
checks; operations repeat, one at a time, while the next one would end
within half an operation of `--seconds`.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` untraced and traced operations alternate and it holds the
per-layer metrics.  `--smoke` runs tiny sizes, one operation per mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread in this process and, through the environment, in every child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP_TIMEOUT_S = 150

from tracer import LAYER_SPANS  # noqa: E402
from workloads import WORK_DIR, ensure_tall_csv, make_workloads  # noqa: E402


def declared_units() -> dict[str, dict[str, str]]:
    """Units of the metrics BENCHMARK.json declares, per mode; a figure the
    benchmark computes but does not declare is an error, not a silent extra."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def run_one(workload: str, seed: int, op: int, traced: bool, smoke: bool) -> dict:
    out = os.path.join(WORK_DIR, "out", workload, f"op{op}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), "--workload", workload,
           "--seed", str(seed), "--op", str(op), "--trace", str(int(traced)),
           "--out", out, "--result", result_path] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"operation exceeded {OP_TIMEOUT_S} s"}
    sys.stderr.write(proc.stderr)
    try:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"ok": False, "error": f"no result (exit {proc.returncode})"}


def end_to_end(ops: list[dict]) -> dict[str, float]:
    """On a shared host the CPU can switch between a fast state and one
    about twice as slow, in spells from a fraction of a second to tens of
    seconds, so a run's mean rate mostly says how long it spent in each.
    The sampling rate is therefore taken at the fastest window of whole
    iterations in any operation of the run (see tracer.IterationClock):
    the speed of the same work on an undisturbed host.  total_s counts the
    iteration loop at that rate and the rest of the call as timed; it,
    setup_s and memory are medians over operations.  Without iteration
    marks (their target is gone) the three timed-loop figures are left out."""
    out = {
        "setup_s": statistics.median(r["setup_s"] for r in ops),
        "ct": statistics.median(r["ct"] for r in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
    }
    if all("fastest_iter_s" in r for r in ops):
        iter_s = min(r["fastest_iter_s"] for r in ops)
        n_iter = ops[0]["n_iter"]
        out["iter_per_s"] = 1.0 / iter_s
        out["ess_per_s"] = statistics.median(r["ess_min"] for r in ops) / (n_iter * iter_s)
        out["total_s"] = (statistics.median(r["total_s"] - r["loop_s"] for r in ops)
                          + n_iter * iter_s)
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = sorted(traced[0]["layers"])
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    base = statistics.median(r["total_s"] for r in untraced)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["total_s"] for r in traced) / base - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one operation per mode, for tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "submcmc", "__init__.py")):
        print(f"error: no submcmc package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workloads = make_workloads(args.smoke)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    units = declared_units()
    os.chdir(ROOT)
    wl = workloads[args.workload]
    if wl.csv:
        ensure_tall_csv(ROOT, wl.n)
    shutil.rmtree(os.path.join(WORK_DIR, "out", wl.name), ignore_errors=True)

    # untraced and traced operations alternate; the seed picks which goes first
    modes = [False, True] if args.trace else [False]
    if args.trace and args.seed % 2:
        modes.reverse()
    min_ops = len(modes) if args.smoke else max(2, len(modes))
    ops: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = modes[len(ops) % len(modes)]
        t0 = time.perf_counter()
        result = run_one(wl.name, args.seed, len(ops), traced, args.smoke)
        result["traced"] = traced
        ops.append(result)
        last = time.perf_counter() - t0
        # start another operation only if it would end within half an
        # operation of the deadline, so runs last about --seconds
        if len(ops) >= min_ops and (
                args.smoke or time.perf_counter() - started + last / 2 > args.seconds):
            break

    done = [r for r in ops if r["ok"]]
    failed = len(ops) - len(done)
    for r in ops:
        if not r["ok"]:
            print(f"operation failed: {r['error']}", file=sys.stderr)
    correct = bool(done)
    for k, r in enumerate(done):
        for name, ok, detail in r["checks"]:
            if not ok:
                correct = False
                print(f"check failed (op {k}): {name}: {detail}", file=sys.stderr)
    shas = {r["trace_sha256"] for r in done}
    if len(shas) > 1:
        correct = False
        print(f"trace.csv differs between operations: {sorted(shas)}", file=sys.stderr)
    missing = sorted({m for r in done for m in r["missing"]})
    if missing:
        print(f"missing spans (targets not found): {', '.join(missing)}", file=sys.stderr)

    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    metrics: dict[str, dict] = {}
    if args.trace and untraced and traced:
        for name, value in per_layer(untraced, traced).items():
            if LAYER_SPANS[name] not in missing:
                metrics[name] = {"value": value, "unit": units["per_layer"][name]}
    elif not args.trace and untraced:
        for name, value in end_to_end(untraced).items():
            # ct has no value when the sign rate is at most 1/2; a check
            # has already failed then
            if math.isfinite(value):
                metrics[name] = {"value": value, "unit": units["end_to_end"][name]}
    for name, m in metrics.items():
        print(f"{wl.name:12s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name}: {len(ops)} operations, {failed} failed, checks "
          f"{'passed' if correct else 'FAILED'}, trace.csv sha256 "
          f"{next(iter(shas))[:16] if shas else '-'}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if done else 1


if __name__ == "__main__":
    sys.exit(main())
