"""Output checks made apart from the program.

The reference values here come from the benchmark's own numpy code: the
full-data Poisson log-likelihood, the Bernstein-von Mises covariance from
the closed-form expected Fisher information, and an initial-positive-
sequence IACT.  Only the estimators under test are the program's.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import gammaln

# a chain mean may sit this many posterior sds from the generating theta
MEAN_SDS = 5.0
# the chain sd may differ from the BvM sd by this share
SD_SHARE = 0.3
# an estimator mean may sit this many standard errors from its target
UNBIASED_SES = 5.0
# a recorded estimate may sit this many estimator sds from l(theta)
RECORD_SDS = 8.0
# summary.csv's iact may differ from the benchmark's own by this share
IACT_SHARE = 0.1
# float rounding of a sum of n terms of size ~1 relative to its magnitude
SUM_RTOL = 1e-10


class Report:
    """Named pass/fail results with the figures behind them."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def check(self, name: str, passed: bool, detail: str = ""):
        self.items.append((name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)


def loglik_total(theta, y, X) -> float:
    """Full-data Poisson log-likelihood sum y*eta - exp(eta) - log y!."""
    theta = np.asarray(theta, dtype=float)
    eta = theta[0] + X @ theta[1:]
    return float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))


def bvm_cov(theta, n: int) -> np.ndarray:
    """Inverse expected Fisher information over n for x ~ N(0, I):
    [[1 + |b|^2, -b'], [-b, I]] / (n exp(theta_0 + |b|^2 / 2))."""
    theta = np.asarray(theta, dtype=float)
    b = theta[1:]
    d = theta.size
    inv = np.eye(d)
    inv[0, 0] = 1.0 + b @ b
    inv[0, 1:] = -b
    inv[1:, 0] = -b
    return inv / (n * math.exp(theta[0] + 0.5 * b @ b))


def iact_ips(x) -> float:
    """Geyer's initial positive sequence: 2 * sum of the leading positive
    pair sums rho_2k + rho_2k+1, minus one."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    rho = acov / acov[0]
    half = n // 2
    pairs = rho[: 2 * half].reshape(half, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    k = stop[0] if stop.size else half
    return float(2.0 * pairs[:k].sum() - 1.0)


def read_csv_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV artifact, skipping '#' comment lines."""
    header, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(cells)
    return header or [], rows


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def mixing(wl, trace) -> tuple[np.ndarray, float, float]:
    """Per-coordinate IACT after burn-in, the smallest ESS and the paper's
    CT = largest IACT x likelihood evaluations per iteration.  For the
    block-Poisson estimator the cost carries the sign correction
    1 / (2 tau - 1)^2, and CT is NaN when the sign rate tau is at most 1/2."""
    post = trace.draws[wl.burn_in:]
    iact = np.array([iact_ips(post[:, j]) for j in range(post.shape[1])])
    cost = wl.cost_per_iter()
    if wl.signed:
        tau = float(np.mean(trace.sign[wl.burn_in:] > 0))
        cost = cost / (2.0 * tau - 1.0) ** 2 if tau > 0.5 else float("nan")
    return iact, float(post.shape[0] / iact.max()), float(iact.max() * cost)


def check_posterior(report, wl, draws, sign):
    """Chain moments after burn-in against Bernstein-von Mises."""
    post = draws[wl.burn_in:]
    w = sign[wl.burn_in:].astype(float)
    if wl.signed:
        tau = float(np.mean(w > 0))
        report.check("sign_rate_above_half", tau > 0.5, f"tau={tau:.4f}")
    if w.sum() <= 0:
        report.check("posterior_mean", False, "sign sum <= 0")
        return
    mean = (w @ post) / w.sum()
    sd = np.sqrt((w @ (post - mean) ** 2) / w.sum())
    ref_sd = np.sqrt(np.diag(bvm_cov(wl.theta, wl.n)))
    z = (mean - np.asarray(wl.theta)) / ref_sd
    ratio = sd / ref_sd
    report.check("posterior_mean", bool(np.all(np.abs(z) <= MEAN_SDS)),
                 f"max |mean - theta| = {np.max(np.abs(z)):.2f} sd (limit {MEAN_SDS})")
    report.check("posterior_sd", bool(np.all(np.abs(ratio - 1.0) <= SD_SHARE)),
                 f"sd / BvM sd in [{ratio.min():.3f}, {ratio.max():.3f}]"
                 f" (limit 1 +- {SD_SHARE})")


def check_estimators(report, wl, pkg, plan, trace, y, X, rows, rng, reps: int):
    """At chain draws `rows`: the program's estimator averaged over fresh
    subsamples against l(theta); then the recorded loglik_est against
    l(theta) for the pmmh kernels."""
    est_mod, samplers = pkg["estimators"], pkg["samplers"]
    model, cache, dataset = plan.model, plan.cache, plan.dataset
    n = dataset.n
    for row in rows:
        theta = trace.draws[row]
        ell = loglik_total(theta, y, X)
        floor = SUM_RTOL * abs(ell)
        if wl.signed:
            cfg = plan.estimator
            logs, vals = [], []
            for _ in range(reps):
                state = est_mod.draw_block_poisson(n, cfg.n_products, cfg.batch_size, rng)
                log_abs, s = est_mod.block_poisson_evaluate(model, cache, dataset,
                                                            theta, cfg, state)
                logs.append(log_abs)
                vals.append(s * math.exp(log_abs - ell))
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            gap = abs(vals.mean() - 1.0)
            report.check(f"block_poisson_unbiased@{row}",
                         gap <= UNBIASED_SES * se + 1e-8,
                         f"|mean s*exp(log_abs - l) - 1| = {gap:.3g}, se = {se:.3g}")
        else:
            m = plan.m if plan.m is not None else plan.estimator.m
            logs = []
            for _ in range(reps):
                idx = rng.integers(0, n, size=m)
                logs.append(est_mod.difference_estimate(model, cache, dataset, theta,
                                                        idx).value)
            logs_arr = np.asarray(logs)
            se = logs_arr.std(ddof=1) / math.sqrt(logs_arr.size)
            gap = abs(logs_arr.mean() - ell)
            report.check(f"difference_unbiased@{row}", gap <= UNBIASED_SES * se + floor,
                         f"|mean estimate - l| = {gap:.3g}, se = {se:.3g}")
            if wl.cfg["sampler"] == "hmc_ecs":
                # the HMC-ECS potential is the bias-corrected difference
                # estimate at the same subsample
                idx = rng.integers(0, n, size=m)
                est = est_mod.difference_estimate(model, cache, dataset, theta, idx)
                _, _, log_phat = samplers.subsampled_potential(model, cache, dataset,
                                                               theta, idx)
                want = est.value - est.sample_variance / 2.0
                report.check(f"ecs_potential_is_corrected_difference@{row}",
                             abs(log_phat - want) <= floor + 1e-9,
                             f"|log_phat - (value - var/2)| = {abs(log_phat - want):.3g}")
        if wl.cfg["sampler"] == "pmmh":
            sd = float(np.std(logs, ddof=1))
            gap = abs(trace.loglik_est[row] - ell)
            report.check(f"recorded_loglik@{row}", gap <= RECORD_SDS * sd + floor,
                         f"|loglik_est - l| = {gap:.3g}, estimator sd = {sd:.3g}")


def check_artifacts(report, wl, trace, paths, resolved, own_iact):
    """trace.csv, summary.csv and the resolved echo against the in-memory
    trace and the benchmark's own IACT."""
    d = trace.draws.shape[1]
    header, rows = read_csv_table(paths["trace"])
    want = ["iter"] + [f"theta_{j}" for j in range(1, d + 1)] + ["accept", "loglik_est",
                                                                 "sign"]
    report.check("trace_header", header == want, ",".join(header))
    table = np.array([[float(c) for c in r] for r in rows]) if rows else np.zeros((0, d + 4))
    report.check("trace_rows", table.shape == (wl.iterations, d + 4),
                 f"{table.shape[0]} rows for {wl.iterations} iterations")
    if table.shape != (wl.iterations, d + 4):
        return
    report.check("trace_finite", bool(np.all(np.isfinite(table))))
    report.check("trace_iter", np.array_equal(table[:, 0], np.arange(1, wl.iterations + 1)))
    report.check("trace_accept_binary", bool(np.all(np.isin(table[:, 1 + d], (0.0, 1.0)))))
    report.check("trace_sign_pm1", bool(np.all(np.isin(table[:, 3 + d], (-1.0, 1.0)))))
    report.check("trace_matches_chain",
                 np.array_equal(table[:, 1:1 + d], trace.draws)
                 and np.array_equal(table[:, 2 + d], trace.loglik_est)
                 and np.array_equal(table[:, 1 + d].astype(bool), trace.accept)
                 and np.array_equal(table[:, 3 + d], trace.sign),
                 "trace.csv round-trips the in-memory chain exactly")

    header, rows = read_csv_table(paths["summary"])
    col = header.index("iact") if "iact" in header else None
    report.check("summary_rows", col is not None and len(rows) == d, f"{len(rows)} rows")
    if col is not None and len(rows) == d:
        prog = np.array([float(r[col]) for r in rows])
        rel = np.abs(prog - own_iact) / np.asarray(own_iact)
        report.check("summary_iact", bool(np.all(rel <= IACT_SHARE)),
                     f"max relative gap {rel.max():.3g} (limit {IACT_SHARE})")

    # the pinned sizes must reach the sampler unchanged
    pinned = [k for k in ("m", "lambda", "m_b", "leapfrog_steps") if k in wl.cfg]
    report.check("resolved_sizes_pinned",
                 all(resolved.get(k) == wl.cfg[k] for k in pinned),
                 ", ".join(f"{k}={resolved.get(k)}" for k in pinned))
