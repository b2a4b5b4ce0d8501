"""Datasets and per-observation log-likelihood models.

Every model exposes the same evaluation surface: log-likelihood
contributions with gradients/Hessians in parameter space, plus
gradients/Hessians in data space evaluated at arbitrary points (needed by
the data-expanded control variates).  A GLM family states its own terms
only, and `GlmModel` derives both surfaces and the full-data sums from
them.  All evaluations are pure functions of their inputs, so callers may
evaluate disjoint index ranges concurrently.
"""

from __future__ import annotations

import csv
import functools
import os
import subprocess
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from scipy import special

from ._csvpart import CSV_FORMAT, SHAPE, parse
from .errors import CacheBuildError, CsvParseError, DomainError


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
        self._log_norm = np.log(self.sd * np.sqrt(2.0 * np.pi))

    def bind(self):
        """(logpdf, grad) of float arrays with the constants bound once, for
        a sampler's per-iteration calls; the methods below delegate to them."""
        mean, sd, var, log_norm = self.mean, self.sd, self.sd**2, self._log_norm

        def logpdf(theta):
            z = (theta - mean) / sd
            return float(-0.5 * np.add.reduce(z * z) - z.size * log_norm)

        def grad(theta):
            # mean - theta is -(theta - mean) to the bit, one operation fewer
            return (mean - theta) / var
        return logpdf, grad

    def logpdf(self, theta: np.ndarray) -> float:
        return self.bind()[0](np.asarray(theta, dtype=float))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.bind()[1](np.asarray(theta, dtype=float))


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

    def bind_sums(self, dataset: Dataset):
        """(theta -> loglik_sum(theta, dataset), theta -> the gradient sum
        np.sum(grad_theta(theta, dataset), axis=0)) to the bit, for many
        calls on one dataset.  A family may validate the responses once for
        both and compute terms that depend on them alone once."""
        return (functools.partial(self.loglik_sum, dataset=dataset),
                functools.partial(self._grad_sum, dataset))

    def _grad_sum(self, dataset: Dataset, theta) -> np.ndarray:
        return np.sum(self.grad_theta(theta, dataset), axis=0)

    def log_prior(self, theta) -> float:
        return self.prior.logpdf(np.asarray(theta, dtype=float))

    def grad_log_prior(self, theta) -> np.ndarray:
        return self.prior.grad(np.asarray(theta, dtype=float))


def _take(arr: np.ndarray, idx):
    return arr if idx is None else arr[idx]


# rows per block of a full-data pass: bounded temporaries, one BLAS product each
_BLOCK = 1 << 16


class GlmModel(ModelSpec):
    """A log-likelihood that sees theta only through eta_i = w_i'theta.

    A family states what is its own: the support of its responses,
    ell(y, eta), its first two eta-derivatives, and the Taylor remainder
    d(y, eta0, a, order) = ell(eta0 + a) - Taylor_order(a) of ell around
    eta0, computed without the cancellation of ell - q.  That remainder is
    the difference d_i of parameter-expanded control variates, with
    a = w_i'(theta - theta0).  Everything else is derived here from the
    design rows w_i = (1, x_i): the per-observation terms in theta, the
    full-data sums, and the terms in data space.

    The data-space terms assume a canonical link, ell = y eta - b(eta) + c(y)
    with eta = theta_0 + x'theta_1:, so in z = (y, x)

        d ell/dy = eta + c'(y),         d ell/dx_j = ell'(eta) theta_j,
        d2 ell/dy2 = c''(y),            d2 ell/dy dx_j = theta_j,
        d2 ell/dx_j dx_k = ell''(eta) theta_j theta_k.

    A family whose c(y) is not constant states c' and c'' (`c_d1`, `c_d2`)
    and may bind the terms of ell that depend on y alone once per dataset
    (`bind_ell`).  `idx` may be an index array, a list or a slice.
    """

    @abstractmethod
    def check_response(self, y: np.ndarray):
        """Raise DomainError unless every response is in the family's support."""

    @abstractmethod
    def ell(self, y, eta) -> np.ndarray:
        """Contributions at linear predictors eta."""

    @abstractmethod
    def ell_d1(self, y, eta) -> np.ndarray:
        """First eta-derivative of ell."""

    @abstractmethod
    def ell_d2(self, y, eta) -> np.ndarray:
        """Second eta-derivative of ell."""

    @abstractmethod
    def remainder(self, y, eta0, a, order: int, grad: bool = False):
        """d = ell(eta0 + a) - sum_{j <= order} ell^(j)(eta0) a^j / j!, and
        with grad=True also s = dd/da, so the theta-gradient of d_i is
        s_i * w_i."""

    def c_d1(self, y):
        """c'(y); None where c is constant."""
        return None

    def c_d2(self, y):
        """c''(y); None where c is constant."""
        return None

    def bind_ell(self, y):
        """eta -> ell(y, eta) to the bit, for many calls at these responses.
        A family may compute the terms that depend on y alone here, once.
        The result pickles, so a cache holding it can go to worker processes."""
        return functools.partial(self.ell, y)

    def design(self, dataset: Dataset, idx=None) -> np.ndarray:
        """Rows w_i = (1, x_i)."""
        X = _take(dataset.X, idx)
        W = np.empty((X.shape[0], X.shape[1] + 1))
        W[:, 0] = 1.0
        W[:, 1:] = X
        return W

    def bind_sums(self, dataset: Dataset):
        """The responses are validated here, once, and both sums skip the
        check; ell is bound to them once (`bind_ell`), and the design rows
        are rebuilt per call."""
        self.check_response(dataset.y)
        return (functools.partial(self._loglik_sum_valid, dataset, self.bind_ell(dataset.y)),
                functools.partial(self._grad_sum_valid, dataset))

    def _loglik_sum_valid(self, dataset: Dataset, ell, theta) -> float:
        """loglik_sum for responses already validated: loglik's terms."""
        return float(np.sum(ell(self._design_eta(theta, dataset, None)[1])))

    def _grad_sum_valid(self, dataset: Dataset, theta) -> np.ndarray:
        """_grad_sum for responses already validated: grad_theta's terms."""
        W, eta = self._design_eta(theta, dataset, None)
        return np.sum(self.ell_d1(dataset.y, eta)[:, None] * W, axis=0)

    def _design_eta(self, theta, dataset, idx):
        """(w_i, eta_i) of the selected observations."""
        W = self.design(dataset, idx)
        return W, W @ np.asarray(theta, dtype=float).reshape(-1)

    def _y_design_eta(self, theta, dataset, idx):
        y = _take(dataset.y, idx)
        self.check_response(y)
        return (y, *self._design_eta(theta, dataset, idx))

    def loglik(self, theta, dataset, idx=None):
        y, _, eta = self._y_design_eta(theta, dataset, idx)
        return self.ell(y, eta)

    def grad_theta(self, theta, dataset, idx=None):
        y, W, eta = self._y_design_eta(theta, dataset, idx)
        return self.ell_d1(y, eta)[:, None] * W

    def hess_theta(self, theta, dataset, idx=None):
        y, W, eta = self._y_design_eta(theta, dataset, idx)
        # in place: one (k, d, d) array instead of two at full-data size
        H = W[:, :, None] * W[:, None, :]
        H *= self.ell_d2(y, eta)[:, None, None]
        return H

    def _data_eta(self, theta, Z):
        """(Z, y, theta_1:, eta) at the rows z = (y, x) of Z."""
        theta = np.asarray(theta, dtype=float)
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y, x = Z[:, 0], Z[:, 1:]
        beta = theta[1:]
        return Z, y, beta, theta[0] + x @ beta

    def loglik_at(self, theta, Z):
        _, y, _, eta = self._data_eta(theta, Z)
        return self.ell(y, eta)

    def grad_data(self, theta, Z):
        Z, y, beta, eta = self._data_eta(theta, Z)
        c1 = self.c_d1(y)
        g = np.empty_like(Z)
        g[:, 0] = eta if c1 is None else eta + c1
        g[:, 1:] = self.ell_d1(y, eta)[:, None] * beta
        return g

    def hess_data(self, theta, Z):
        Z, y, beta, eta = self._data_eta(theta, Z)
        c2 = self.c_d2(y)
        k, dz = Z.shape
        H = np.empty((k, dz, dz))
        H[:, 0, 0] = 0.0 if c2 is None else c2
        H[:, 0, 1:] = beta
        H[:, 1:, 0] = beta
        H[:, 1:, 1:] = self.ell_d2(y, eta)[:, None, None] * np.outer(beta, beta)
        return H

    def taylor_sums(self, theta, dataset: Dataset, order: int = 2):
        """One blocked pass over all observations at `theta`.

        Returns (eta, sum_i ell_i, W'ell', W'diag(ell'')W): the gradient
        sum is zero below order 1 and the Hessian sum zero below order 2.
        Each block writes its terms [ell, ell', diag(ell'')W] into one
        C-contiguous buffer, allocated once per pass, and makes one BLAS
        product W'[ell', diag(ell'')W], so no (n, d, d) array and no (n, d)
        array beyond a block is formed.  The responses are validated here,
        once; a non-finite term raises CacheBuildError naming its
        observation.
        """
        theta = np.asarray(theta, dtype=float)
        self.check_response(dataset.y)
        d = theta.size
        eta = np.empty(dataset.n)
        sum_ell = 0.0
        width = 1 + (1 if order >= 1 else 0) + (d if order >= 2 else 0)
        moments = np.zeros((d, width - 1))
        buf = np.empty((min(_BLOCK, dataset.n), width))
        for lo in range(0, dataset.n, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            y, W = dataset.y[rows], self.design(dataset, rows)
            e = eta[rows] = W @ theta
            cols = buf[:y.size]
            cols[:, 0] = self.ell(y, e)
            if order >= 1:
                cols[:, 1] = self.ell_d1(y, e)
            if order >= 2:
                np.multiply(self.ell_d2(y, e)[:, None], W, out=cols[:, 2:])
            if not np.isfinite(cols).all():
                bad = np.argmin(np.isfinite(cols).all(axis=1))
                raise CacheBuildError(f"non-finite expansion quantity at observation {lo + bad}")
            sum_ell += float(np.sum(cols[:, 0]))
            if order >= 1:
                moments += W.T @ cols[:, 1:]
        sum_grad = moments[:, 0] if order >= 1 else np.zeros(d)
        sum_hess = moments[:, 1:] if order >= 2 else np.zeros((d, d))
        return eta, sum_ell, sum_grad, sum_hess


def _y_plus_one(y):
    """y + 1, the argument of log y! and its derivatives, for real y > -1."""
    if np.any(y <= -1.0):
        raise DomainError("log y! and its y-derivatives require y > -1")
    return y + 1.0


# below about this many counts a table costs more than gammaln on each:
# 7.7 us against 6.2 us at 128 counts, 8.2 us against 9.2 us at 256 (2-core host)
_TABLE_MIN_COUNTS = 256


def _log_factorial(y):
    """log(y!) = log Gamma(y + 1), overflow-free for large counts, for real y > -1.

    At least _TABLE_MIN_COUNTS float counts, each no larger than their
    number, are looked up in a table of gammaln(1), ..., gammaln(max + 1):
    the same arguments, so the same bits, at one gammaln call per distinct
    value instead of one per count.
    """
    y = np.asarray(y)
    if (y.dtype == float and y.size >= _TABLE_MIN_COUNTS and -1.0 < y.min()
            and (top := y.max()) <= y.size):
        counts = y.astype(np.intp)
        if np.array_equal(counts, y):
            return special.gammaln(np.arange(1.0, top + 2.0))[counts]
    return special.gammaln(_y_plus_one(y))


def _poisson_ell(y, eta, log_y_factorial):
    return y * eta - np.exp(eta) - log_y_factorial


class PoissonRegression(GlmModel):
    """Counts y_i ~ Pois(exp(w_i' theta)) with w_i = (1, x_i)."""

    def check_response(self, y):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DomainError("Poisson responses must be nonnegative integers")

    def ell(self, y, eta):
        return _poisson_ell(y, eta, _log_factorial(y))

    def bind_ell(self, y):
        """log y! computed once, at the cost of holding it: 8 bytes a response."""
        return functools.partial(_poisson_ell, y, log_y_factorial=_log_factorial(y))

    # c(y) = -log y!
    def c_d1(self, y):
        return -special.digamma(_y_plus_one(y))

    def c_d2(self, y):
        return -special.polygamma(1, _y_plus_one(y))

    def ell_d1(self, y, eta):
        return y - np.exp(eta)

    def ell_d2(self, y, eta):
        return -np.exp(eta)

    def remainder(self, y, eta0, a, order, grad=False):
        # log y! and, from order 1 on, y * eta cancel exactly:
        # d = y a [order 0] - mu0 (expm1(a) - sum_{1 <= j <= order} a^j / j!)
        mu0 = np.exp(eta0)
        e = np.expm1(a)
        if order == 0:
            d = y * a - mu0 * e
            s = y - mu0 * (e + 1.0)
        elif order == 1:
            neg_mu0 = -mu0
            d = neg_mu0 * (e - a)
            s = neg_mu0 * e
        else:
            neg_mu0, r1 = -mu0, e - a
            d = neg_mu0 * (r1 - 0.5 * a * a)
            s = neg_mu0 * r1
        return (d, s) if grad else d


class LogisticRegression(GlmModel):
    """Bernoulli-logit contributions y_i eta_i - log(1 + exp(eta_i))."""

    def check_response(self, y):
        if np.any((y != 0.0) & (y != 1.0)):
            raise DomainError("logistic responses must be in {0, 1}")

    @staticmethod
    def _softplus(eta: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, eta)

    def ell(self, y, eta):
        return y * eta - self._softplus(eta)

    def ell_d1(self, y, eta):
        return y - _sigmoid(eta)

    def ell_d2(self, y, eta):
        p = _sigmoid(eta)
        return -(p * (1.0 - p))

    def remainder(self, y, eta0, a, order, grad=False):
        # For |a| <= 1, with p0 = sigmoid(eta0), q0 = 1 - p0 and e = expm1(a):
        #   softplus(eta0 + a) - softplus(eta0) = log1p(p0 e)
        #   sigmoid(eta0 + a) - p0             = p0 q0 e / (1 + p0 e)
        # so the leading Taylor terms cancel against small numbers; farther
        # out there is nothing to cancel and the plain differences are used.
        p0, q0 = _sigmoid(eta0), _sigmoid(-eta0)
        eta = eta0 + a
        near = np.abs(a) <= 1.0
        pe = p0 * np.expm1(np.clip(a, -1.0, 1.0))
        dsp = np.where(near, np.log1p(pe), self._softplus(eta) - self._softplus(eta0))
        dp = np.where(near, q0 * pe / (1.0 + pe), _sigmoid(eta) - p0)
        if order == 0:
            d, s = y * a - dsp, y - p0 - dp
        elif order == 1:
            d, s = p0 * a - dsp, -dp
        else:
            c0 = p0 * q0
            d, s = (p0 + 0.5 * c0 * a) * a - dsp, c0 * a - dp
        return (d, s) if grad else d


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class NormalMeanModel(GlmModel):
    """y_i ~ N(theta, 1) with a conjugate N(mu0, tau0^2) prior.

    The posterior is available in closed form, which makes this model the
    validation oracle for the exact samplers.  In GLM form w_i = 1, so
    eta_i = theta for every observation.  It ignores the covariates, so it
    states its own terms in data space, where only y counts.
    """

    def __init__(self, mu0: float = 0.0, tau0: float = 10.0):
        super().__init__(GaussianPrior(mean=mu0, sd=tau0))
        self.mu0 = mu0
        self.tau0 = tau0

    _HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

    def dim(self, dataset):
        return 1

    def design(self, dataset, idx=None):
        return np.ones((_take(dataset.y, idx).shape[0], 1))

    def check_response(self, y):
        pass

    def ell(self, y, eta):
        r = y - eta
        return -0.5 * r * r - self._HALF_LOG_2PI

    def ell_d1(self, y, eta):
        return y - eta

    def ell_d2(self, y, eta):
        return np.full(np.shape(y), -1.0)

    def remainder(self, y, eta0, a, order, grad=False):
        # ell is quadratic in eta, so the second-order expansion is exact
        if order == 0:
            r = y - eta0
            d, s = (r - 0.5 * a) * a, r - a
        elif order == 1:
            d, s = -0.5 * a * a, -a
        else:
            d, s = np.zeros_like(a), np.zeros_like(a)
        return (d, s) if grad else d

    def loglik_at(self, theta, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self.ell(Z[:, 0], float(np.asarray(theta).reshape(-1)[0]))

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

# below this many bytes a part is not worth a worker process
_MIN_PART_BYTES = 16 << 20
# the first part, parsed in this process, is longer than each worker's by
# about what this process parses while a worker starts Python and numpy
# (0.3 s) and skips the lines before its part; on a 103 MB file on a 2-core
# host, equal parts loaded slower than this in 9 of 10 alternating pairs
# (median ratio 1.12)
_FIRST_PART_EXTRA_BYTES = 8 << 20
_WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_csvpart.py")


def load_dataset(path) -> Dataset:
    """Read a `y,x1,...,xp` CSV: UTF-8, a header row, ',' delimiter,
    optional '"' quotes, blank lines skipped, '.' decimal point.

    A large file is cut at line ends into one part per usable core.  This
    process parses the first part while worker processes (`_csvpart.py`)
    parse the others, and their rows are read straight into place.  Each
    part is parsed by `np.loadtxt` from the file path, told the lines
    before it and the rows in it, so the values are those of one pass over
    the file, to the bit.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
        with open(path, "rb") as raw:
            parts = _parts(raw)
    except OSError as exc:
        raise CsvParseError(f"{path}: cannot read ({exc.strerror or exc})") from None
    if header is None:
        raise CsvParseError(f"{path}: empty file")
    width = len(header)
    if width < 1:
        raise CsvParseError(f"{path}: header has no columns")
    workers = []
    try:
        for skip, rows in parts[1:]:
            workers.append(_start_worker(path, skip, rows) if rows != 0 else None)
        # each part as parsed rows, or as the (rows, cols) its worker announced
        results = [_parse_or_raise(path, width, *parts[0])]
        for proc, part in zip(workers, parts[1:]):
            shape = _worker_shape(proc)
            results.append(_parse_or_raise(path, width, *part) if shape is None else shape)
        shapes = [r.shape if isinstance(r, np.ndarray) else r for r in results]
        n_rows = sum(rows for rows, _ in shapes)
        if n_rows == 0:
            raise CsvParseError(f"{path}: no data rows")
        for rows, cols in shapes:
            if rows and cols != width:
                _raise_first_bad_row(path, width, f"expected {width} columns, got {cols}")
        # loadtxt grows its results outside numpy's allocator, so on Linux
        # they get no huge pages.  This buffer, which every later full pass
        # and subsample gather reads, gets them: a numpy-made copy of the
        # whole parse made set-up 0.6 s shorter and sampling 3.7% faster at
        # n = 1e6, d = 6 on a 2-core host.  Worker rows are read into it
        # with no other copy.
        data = np.empty((n_rows, width))
        at = 0
        for result, (rows, _), proc, part in zip(results, shapes, [None] + workers, parts):
            block = data[at:at + rows]
            at += rows
            if isinstance(result, np.ndarray):
                block[...] = result
            elif not _fill(proc.stdout, block.reshape(-1).view(np.uint8)):
                block[...] = _parse_or_raise(path, width, *part)
    finally:
        for proc in workers:
            if proc is not None:
                proc.kill()
                proc.wait()
                proc.stdout.close()
    return Dataset(y=data[:, 0], X=data[:, 1:])


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(raw, start: int, stop: int, size: int = 1 << 20):
    """The bytes [start, stop) of the binary file `raw`, `size` at a time."""
    raw.seek(start)
    while start < stop:
        block = raw.read(min(size, stop - start))
        if not block:
            return
        start += len(block)
        yield block


def _after_newline(raw, pos: int, size: int) -> int:
    """The offset just after the first '\\n' at or after `pos`; `size` if none."""
    for block in _blocks(raw, pos, size, 1 << 16):
        at = block.find(b"\n")
        if at != -1:
            return pos + at + 1
        pos += len(block)
    return size


def _parts(raw) -> list[tuple[int, int | None]]:
    """(skip, rows) of each part of the binary file `raw`: the lines before
    the part and the data rows in it, None in the last part.

    There is one part per usable core, none under _MIN_PART_BYTES, each
    ending at a '\\n' or at the end of the file, and the first part is
    _FIRST_PART_EXTRA_BYTES longer than the others.  Lines end at '\\n' or
    '\\r\\n', and only lines of no characters are not rows.  A file is
    one part if a lone '\\r' ends a line before its last part, or if a '"'
    follows its first line, since a quoted cell may hold a line break.
    """
    size = os.fstat(raw.fileno()).st_size
    k = _usable_cores()
    if _MIN_PART_BYTES:
        k = min(k, size // _MIN_PART_BYTES)
    first_line = _after_newline(raw, 0, size) if k > 1 else size
    if (first_line == size or any(b"\r" in block for block in _blocks(raw, 0, first_line - 2))
            or any(b'"' in block for block in _blocks(raw, first_line, size))):
        return [(1, None)]
    starts = _part_starts(raw, first_line, size, k)
    parts, skip = [], 1
    for start, stop in zip(starts, starts[1:]):
        counts = _count_lines(raw, start, stop)
        if counts is None:
            return [(1, None)]
        parts.append((skip, counts[0] - counts[1]))
        skip += counts[0]
    return parts + [(skip, None)]


def _part_starts(raw, first_line: int, size: int, k: int) -> list[int]:
    """Where the data of each of up to k parts starts: first_line, then
    offsets just after a '\\n', the first part _FIRST_PART_EXTRA_BYTES
    longer than the others."""
    share = max(size - _FIRST_PART_EXTRA_BYTES, 0) // k
    starts = [first_line]
    for j in range(1, k):
        cut = _after_newline(raw, max(size - (k - j) * share, starts[-1] + 1) - 1, size)
        if cut == size:
            break
        starts.append(cut)
    return starts


def _count_lines(raw, start: int, stop: int) -> tuple[int, int] | None:
    """(lines, empty lines) in bytes [start, stop) of the binary file `raw`,
    whole lines after a '\\n'; None if a lone '\\r' ends one of them."""
    lines = empty = 0
    tail = b"\n\n"  # as if after an empty line: only the last byte matters
    for block in _blocks(raw, start, stop):
        window = tail + block
        codes = np.frombuffer(window, np.uint8)
        newline = codes == ord("\n")
        ends = newline[2:]
        after_end = newline[1:-1]
        if b"\r" in window:
            cr = codes == ord("\r")
            if np.any(cr[1:-1] & ~newline[2:]):
                return None
            after_end = after_end | (cr[1:-1] & newline[:-2])
        lines += int(np.count_nonzero(ends))
        empty += int(np.count_nonzero(ends & after_end))
        tail = window[-2:]
    return lines, empty


def _start_worker(path, skip: int, rows: int | None):
    """A worker process parsing `rows` rows (None: all the rest) after the
    first `skip` lines, or None if none starts."""
    if not sys.executable:
        return None
    try:
        return subprocess.Popen(
            [sys.executable, _WORKER, os.fspath(path), str(skip),
             str(-1 if rows is None else rows)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            bufsize=0)
    except OSError:
        return None


def _worker_shape(proc):
    """The (rows, cols) a worker announces once it has parsed its part;
    None if it failed or never started."""
    if proc is None:
        return None
    head = bytearray(SHAPE.size)
    return SHAPE.unpack(head) if _fill(proc.stdout, head) else None


def _fill(stream, buf) -> bool:
    """Read `stream` into all of the bytes `buf`; False if it ends first."""
    view = memoryview(buf)
    while view:
        n = stream.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _parse_or_raise(path, width: int, skip: int, rows: int | None) -> np.ndarray:
    """The part of `rows` rows after `skip` lines; a parse error is raised
    naming its file line."""
    if rows == 0:
        return np.empty((0, width))
    try:
        return parse(path, skip, rows)
    except ValueError as exc:
        _raise_first_bad_row(path, width, str(exc))


def _raise_first_bad_row(path, width: int, reason: str, head: int = 1) -> NoReturn:
    """Name the first file line after the `head` lines before the data
    (the header, and any comment above it) that the bulk parse rejects.

    Runs only after np.loadtxt has failed, whose messages count data rows
    rather than file lines; it raises and never returns data.  Each line is
    judged by the same parser, so a cell Python's float() accepts but
    loadtxt does not (`1_0`) is still found.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        for _ in range(head):
            fh.readline()
        for lineno, line in enumerate(fh, start=head + 1):
            cells = next(csv.reader([line]), [])
            if not cells:
                continue
            if len(cells) != width:
                raise CsvParseError(
                    f"{path}: row {lineno}: expected {width} columns, got {len(cells)}"
                )
            try:
                np.loadtxt([line], **CSV_FORMAT)
            except ValueError as exc:
                # the single-line parse always reports its own row 0
                detail = str(exc).replace(" at row 0,", " at")
                raise CsvParseError(f"{path}: row {lineno}: non-numeric cell ({detail})") from None
    raise CsvParseError(f"{path}: {reason}")


def save_dataset(dataset: Dataset, path):
    write_csv(path, ["y"] + [f"x{j}" for j in range(1, dataset.p + 1)],
              [dataset.y, *dataset.X.T])


# rows formatted per write: a 40000-row pmmh run peaks no higher than when its
# trace was written a row at a time (256 rows added 0.2 MB), and writes it faster
_WRITE_ROWS = 64


def write_csv(path, header, columns, comment=None):
    """Write `columns`, sequences of one length, under `header`, after a
    '# comment' line if one is given: floats by repr (they read back to the
    bit), booleans and integers as integers, strings as they are, and every
    line ending in '\\n'.  No cell is quoted; none that the package writes
    holds ',', '"' or a line end."""
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _WRITE_ROWS):
            cells = [_cells(np.asarray(column[lo:lo + _WRITE_ROWS])) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(values: np.ndarray):
    """The text of each value of one column."""
    if values.dtype.kind == "b":
        values = values.astype(np.int8)
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


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
