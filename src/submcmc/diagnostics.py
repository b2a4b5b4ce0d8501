"""Chain-quality metrics: IACT, effective sample size, Monte Carlo standard
errors, sign rates, and the computational-time figures of merit used for
tuning subsample sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import write_csv

IACT_METHODS = ("geyer_initial_positive", "batch_means", "bartlett_spectral")


def autocorrelations(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations rho_0..rho_max_lag via FFT (biased normalization)."""
    x = np.asarray(series, dtype=float)
    if _constant(x):
        raise DomainError("zero-variance series: autocorrelation undefined")
    x = x - x.mean()
    n = x.size
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1] / n
    return acov / acov[0]


def _constant(x: np.ndarray) -> bool:
    """Whether every value of x is the same: np.var of a constant array can
    round to a tiny positive number, so constancy is decided exactly."""
    return x.min() == x.max()


def after_burn_in(x, burn_in: int):
    """x[burn_in:], raising DomainError naming burn-in unless it lies in
    [0, len(x)): a negative one would keep the last rows, and one past the
    end none.  A burn-in of 0 always passes, so empty input meets the
    caller's own length check."""
    if not 0 <= burn_in < max(len(x), 1):
        raise DomainError(f"burn-in must satisfy 0 <= burn-in < {len(x)}, got {burn_in}")
    return x[burn_in:]


@dataclass
class IactEstimate:
    value: float
    method: str
    lags_used: int


def iact(series, method: str = "geyer_initial_positive", burn_in: int = 0) -> IactEstimate:
    """Integrated autocorrelation time 1 + 2 sum_k rho_k.

    geyer_initial_positive: sum autocorrelations truncated at the first
    non-positive pair sum rho_{2t} + rho_{2t+1} (no tuning parameter,
    conservative; the default).
    batch_means: floor(sqrt(N)) batches; variance-of-means ratio.
    bartlett_spectral: lag-window estimate of the spectral density at
    frequency zero with window width floor(N^(1/3)), divided by the
    sample variance.
    """
    x = after_burn_in(np.asarray(series, dtype=float), burn_in)
    n = x.size
    if n < 100:
        raise DomainError("need at least 100 points after burn-in")
    if _constant(x):
        raise DomainError("zero-variance series: IACT undefined")
    if method == "geyer_initial_positive":
        rho = autocorrelations(x, max_lag=n - 1)
        total = 0.0
        lags = 0
        for t in range(n // 2):
            pair = rho[2 * t] + (rho[2 * t + 1] if 2 * t + 1 < n else 0.0)
            if pair <= 0.0:
                break
            total += pair
            lags = 2 * t + 1
        return IactEstimate(value=float(2.0 * total - 1.0), method=method,
                            lags_used=max(lags, 1))
    if method == "batch_means":
        nb = int(np.sqrt(n))
        b = n // nb
        means = x[: nb * b].reshape(nb, b).mean(axis=1)
        value = b * np.var(means, ddof=1) / np.var(x, ddof=1)
        return IactEstimate(value=float(value), method=method, lags_used=b)
    if method == "bartlett_spectral":
        width = max(2, int(round(n ** (1.0 / 3.0))))
        rho = autocorrelations(x, max_lag=width - 1)
        weights = 1.0 - np.arange(1, width) / width
        value = 1.0 + 2.0 * float(weights @ rho[1:width])
        return IactEstimate(value=value, method=method, lags_used=width - 1)
    raise DomainError(f"unknown IACT method {method!r}; choose from {IACT_METHODS}")


def ct(iact_value, cost_proxy: float) -> float:
    """Computational time per posterior-equivalent draw: IACT x iteration cost."""
    v = iact_value.value if isinstance(iact_value, IactEstimate) else float(iact_value)
    return v * float(cost_proxy)


def ct_signed(iact_value, batch_size: int, n_products: int, tau: float) -> float:
    """Computational time of the sign-corrected sampler:
    batch_size * n_products * IACT / (2 tau - 1)^2."""
    if not 0.5 < tau <= 1.0:
        raise DomainError("sign rate tau must exceed 0.5 for the sign estimator to work")
    v = iact_value.value if isinstance(iact_value, IactEstimate) else float(iact_value)
    return batch_size * n_products * v / (2.0 * tau - 1.0) ** 2


def mc_standard_error(series, iact_value, burn_in: int = 0) -> float:
    """MCSE of the series mean: sd * sqrt(IACT / N)."""
    x = after_burn_in(np.asarray(series, dtype=float), burn_in)
    v = iact_value.value if isinstance(iact_value, IactEstimate) else float(iact_value)
    if x.size < 2:
        raise DomainError("need at least 2 points")
    return float(np.std(x, ddof=1) * np.sqrt(max(v, 0.0) / x.size))


@dataclass
class CtReport:
    iact: IactEstimate
    cost_proxy: float
    tau: float
    ct_value: float


def make_ct_report(trace, coord: int = 0, cost_proxy: float | None = None,
                   burn_in: int = 0, method: str = "geyer_initial_positive") -> CtReport:
    """Tuning report for one coordinate of a chain trace, at `cost_proxy`
    per iteration or else the trace's own (one read from CSV has none)."""
    est = iact(trace.draws[:, coord], method=method, burn_in=burn_in)
    tau = float(np.mean(trace.sign[burn_in:] > 0))
    if cost_proxy is None and "cost_proxy" not in trace.meta:
        raise DomainError("cost_proxy: the trace records no per-iteration cost; pass one")
    cost = float(cost_proxy if cost_proxy is not None else trace.meta["cost_proxy"])
    return CtReport(iact=est, cost_proxy=cost, tau=tau, ct_value=ct(est, cost))


SUMMARY_COLUMNS = ("coordinate", "mean", "sd", "iact", "ess", "mcse",
                   "accept_rate", "sign_rate")


def summarize(trace, burn_in: int = 0, method: str = "geyer_initial_positive") -> list[dict]:
    """Per-coordinate summary rows in the fixed SUMMARY_COLUMNS order.

    The iact column is reported exactly as estimated (it can drop below 1,
    or even 0, for antithetic chains); the derived ess and mcse columns
    floor it at a small positive value since the true autocorrelation time
    is strictly positive.
    """
    draws = after_burn_in(trace.draws, burn_in)
    n, d = draws.shape
    if n < 2:
        raise DomainError(f"burn-in {burn_in} leaves {n} of {n + burn_in} draws, fewer than 2")
    accept_rate = float(np.mean(trace.accept[burn_in:]))
    sign_rate = float(np.mean(trace.sign[burn_in:] > 0))
    rows = []
    for j in range(d):
        x = draws[:, j]
        mean, sd = float(np.mean(x)), float(np.std(x, ddof=1))
        tau_j = ess = mcse = float("nan")
        if _constant(x):
            # a chain that never moved: its value, exactly, and no IACT
            mean, sd, mcse = float(x[0]), 0.0, 0.0
        elif sd > 0 and n >= 100:
            est = iact(x, method=method)
            floored = max(est.value, 0.01)
            tau_j, ess = est.value, n / floored
            mcse = mc_standard_error(x, floored)
        rows.append({
            "coordinate": j + 1,
            "mean": mean,
            "sd": sd,
            "iact": tau_j,
            "ess": ess,
            "mcse": mcse,
            "accept_rate": accept_rate,
            "sign_rate": sign_rate,
        })
    return rows


def write_summary_csv(rows: list[dict], path, header_comment: str | None = None):
    write_csv(path, SUMMARY_COLUMNS, [[row[c] for row in rows] for c in SUMMARY_COLUMNS],
              header_comment)
