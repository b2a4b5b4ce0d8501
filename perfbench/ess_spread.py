"""How far ESS and CT move with the chain seed alone.

    python3 perfbench/ess_spread.py

The benchmark fixes each workload's chain seed, so its ESS and CT are fixed
numbers for fixed code.  A change that alters the trace (a different RNG
order, or float reassociation) moves them the way another seed would; this
script shows how far that is, from every workload's config rerun with chain
seeds 1, 2, 3, 4 and 6 in place of the benchmark's.
"""

from __future__ import annotations

import os
import statistics
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OTHER_CHAIN_SEEDS = (1, 2, 3, 4, 6)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from submcmc import experiments

    from checks import mixing
    from workloads import CHAIN_SEED, ensure_tall_csv, make_workloads

    for name, wl in make_workloads().items():
        if wl.csv:
            ensure_tall_csv(ROOT, wl.n)
        plan, _ = experiments.resolve(wl.cfg)
        ess = {}
        for seed in (CHAIN_SEED,) + OTHER_CHAIN_SEEDS:
            plan.seed = seed
            _, ess[seed], ct = mixing(wl, experiments.run_chain(plan, 0))
            print(f"{name:12s} chain seed {seed}: min ESS {ess[seed]:.1f}, ct {ct:.1f}",
                  flush=True)
        others = [ess[s] for s in OTHER_CHAIN_SEEDS]
        print(f"{name:12s} min ESS over the other seeds: median {statistics.median(others):.1f},"
              f" range {min(others):.1f}-{max(others):.1f}, i.e. "
              f"{min(others) / ess[CHAIN_SEED] - 1:+.1%} to "
              f"{max(others) / ess[CHAIN_SEED] - 1:+.1%} of the benchmark's seed")
        del plan
    return 0


if __name__ == "__main__":
    sys.exit(main())
