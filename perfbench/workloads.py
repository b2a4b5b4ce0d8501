"""Workload definitions and input generation for the `submcmc run` benchmark.

Each workload is one `submcmc run` config at a fixed size.  The data seed
and the chain seed are fixed per workload, so the trace, its ESS and its CT
are fixed numbers for fixed code; the benchmark's `--seed` only picks which
chain draws the output checks look at and the fresh subsamples they draw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from checks import file_sha256

WORK_DIR = os.path.join("perfbench", "_work")

# generating parameters: the intercept first, then one slope per covariate
TALL_THETA = (0.5, 0.3, -0.2, 0.25, -0.15, 0.1)
SIM_THETA = (1.0, 0.75)
TALL_DATA_SEED = 20180723
SIM_DATA_SEED = 1830
CHAIN_SEED = 5


@dataclass
class Workload:
    name: str
    n: int
    theta: tuple
    cfg: dict
    # iterations per timing window, a few ms of sampling at full speed
    window: int
    # (module, function) called once per unit of work in an iteration, for
    # workloads whose iterations differ in cost
    work: tuple | None = None
    csv: bool = False

    @property
    def iterations(self) -> int:
        return int(self.cfg["iterations"])

    @property
    def burn_in(self) -> int:
        return int(self.cfg["burn_in"])

    @property
    def signed(self) -> bool:
        return self.cfg.get("estimator") == "block_poisson"

    def cost_per_iter(self) -> float:
        """Per-iteration likelihood evaluations in the paper's CT: m for the
        difference estimator, lambda * m_b for the block-Poisson estimator
        (before the sign correction) and m * L for HMC-ECS."""
        if self.cfg["sampler"] == "hmc_ecs":
            return float(self.cfg["m"]) * float(self.cfg["leapfrog_steps"])
        if self.signed:
            return float(self.cfg["lambda"]) * float(self.cfg["m_b"])
        return float(self.cfg["m"])


def _base(iterations: int, burn_in: int) -> dict:
    return {"model": "poisson", "iterations": str(iterations),
            "burn_in": str(burn_in), "seed": str(CHAIN_SEED), "cv": "param",
            "order": "2"}


def _simulated(n: int) -> dict:
    return {"simulate_n": str(n), "simulate_theta": ",".join(map(repr, SIM_THETA)),
            "simulate_seed": str(SIM_DATA_SEED)}


def make_workloads(smoke: bool = False) -> dict[str, Workload]:
    """The three workloads; `smoke` shrinks n and the chain lengths so that
    every check runs in seconds."""
    n = 20_000 if smoke else 1_000_000
    # posterior sd scales as n^-1/2; the step keeps epsilon * L near 4 sd
    eps = 1.4e-3 if smoke else 2e-4
    tall_iter, tall_burn = (2_000, 500) if smoke else (40_000, 2_000)
    signed_iter, signed_burn = (300, 100) if smoke else (1_500, 300)
    hmc_iter, hmc_burn = (300, 100) if smoke else (1_500, 300)
    # the data path is relative to the checkout so that the config echoed
    # into trace.csv, and so the file's bytes, do not depend on where it sits
    tall = {**_base(tall_iter, tall_burn), "data": _tall_csv_path(n),
            "sampler": "pmmh", "estimator": "difference", "m": "50",
            "omega": "laplace", "dependence": "independent"}
    signed = {**_base(signed_iter, signed_burn), **_simulated(n),
              "sampler": "pmmh", "estimator": "block_poisson", "lambda": "50",
              "m_b": "30", "dependence": "bpm", "blocks": "10", "omega": "laplace"}
    hmc = {**_base(hmc_iter, hmc_burn), **_simulated(n),
           "sampler": "hmc_ecs", "m": "300", "epsilon": repr(eps),
           "leapfrog_steps": "10", "dependence": "bpm", "blocks": "10"}
    return {
        "pmmh-tall": Workload("pmmh-tall", n, TALL_THETA, tall, window=10, csv=True),
        # one `differences` call per mini-batch; their number is random
        "pmmh-signed": Workload("pmmh-signed", n, SIM_THETA, signed, window=2,
                                work=("estimators", "differences")),
        "hmc-ecs": Workload("hmc-ecs", n, SIM_THETA, hmc, window=2),
    }


def _tall_csv_path(n: int) -> str:
    return os.path.join(WORK_DIR, "data", f"tall_n{n}_seed{TALL_DATA_SEED}.csv")


def simulate_tall(n: int) -> tuple[np.ndarray, np.ndarray]:
    """y_i ~ Pois(exp(theta_0 + x_i' beta)) with x_i ~ N(0, I_5)."""
    theta = np.asarray(TALL_THETA)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(TALL_DATA_SEED)))
    X = rng.standard_normal((n, theta.size - 1))
    y = rng.poisson(np.exp(theta[0] + X @ theta[1:])).astype(float)
    return y, X


def ensure_tall_csv(root: str, n: int) -> str:
    """Write the pmmh-tall CSV once per checkout; later runs reuse it after
    checking its digest, so a half-written file is never read."""
    rel = _tall_csv_path(n)
    path = os.path.join(root, rel)
    stamp = path + ".sha256"
    if os.path.exists(path) and os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            if fh.read().strip() == file_sha256(path):
                return rel
    os.makedirs(os.path.dirname(path), exist_ok=True)
    y, X = simulate_tall(n)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(1, X.shape[1] + 1)]) + "\n")
        block = 100_000
        for lo in range(0, n, block):
            rows = np.column_stack([y[lo:lo + block], X[lo:lo + block]]).tolist()
            fh.write("\n".join(",".join(map(repr, row)) for row in rows) + "\n")
    os.replace(tmp, path)
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(file_sha256(path) + "\n")
    return rel

