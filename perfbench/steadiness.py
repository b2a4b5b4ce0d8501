"""Run the benchmark in two sets of runs, one set after the other, and
report per workload and metric each set's median, quartiles and spread
(q3 - q1) / median, and how far the second set's median moved from the
first's.

    python3 perfbench/steadiness.py --seeds 501,502,503,504,505/511,512,513,514,515 --seconds 30

`/` separates the two sets' seeds.  Within a set the workloads alternate
run by run, in reversed order on every other seed, so a slow spell of the
host falls on every workload alike.  Each run is one untraced
`perfbench/run.py` process; the wall time of each and the digest of the
trace.csv it wrote are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pmmh-tall", "pmmh-signed", "hmc-ecs")


def run_set(seeds: list[str], seconds: str) -> dict[str, list[dict]] | None:
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for k, seed in enumerate(seeds):
        for workload in WORKLOADS[::-1] if k % 2 else WORKLOADS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=os.path.dirname(HERE))
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return None
            result = json.loads(lines[-1])
            runs[workload].append(result)
            # the line before the result ends with the trace.csv digest
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']},"
                  f" failed {result['failed']}, correct {result['correct']},"
                  f" trace.csv {lines[-2].split()[-1]}", flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="two comma-separated seed lists separated by '/'")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args(argv)
    seed_sets = [s.split(",") for s in args.seeds.split("/")]
    if len(seed_sets) != 2 or min(map(len, seed_sets)) < 2:
        parser.error("--seeds takes two lists of at least two seeds, separated by '/'")

    sets = [run_set(seeds, args.seconds) for seeds in seed_sets]
    if None in sets:
        return 1
    for workload in WORKLOADS:
        for name in sets[0][workload][0]["metrics"]:
            medians = []
            for label, runs in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                print(f"{workload:12s} {name:12s} set {label}: median {med:.6g}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}")
            print(f"{workload:12s} {name:12s} B vs A: {medians[1] / medians[0] - 1:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
