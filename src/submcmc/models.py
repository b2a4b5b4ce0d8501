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
from dataclasses import dataclass, field
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
    rows : the C-contiguous (n, 1 + p) rows z_i = (y_i, x_i) of which y and X
        are views, for a dataset made by `from_rows`; None otherwise.
    """

    y: np.ndarray
    X: np.ndarray
    rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.y.shape[0] < 1:
            raise DomainError("y must be a non-empty vector")
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DomainError("X row count must equal len(y)")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DomainError("dataset contains non-finite entries")

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> Dataset:
        """The dataset of the rows z_i = (y_i, x_i) of one C-contiguous
        float array, held once: y and X are views of it."""
        rows = np.ascontiguousarray(rows, dtype=float)
        dataset = cls(y=rows[:, 0], X=rows[:, 1:])
        dataset.rows = rows
        return dataset

    def __getstate__(self):
        # the rows pickle once, not again as the y and X views of them
        return self.__dict__ if self.rows is None else {"rows": self.rows}

    def __setstate__(self, state):
        rows = state.get("rows")
        self.__dict__.update(state if rows is None else
                             {"y": rows[:, 0], "X": rows[:, 1:], "rows": rows})

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
        # 0-d arrays, the scalar operands numpy dispatches fastest, to the same bits
        mean, var = (np.array(c, dtype=float) for c in (self.mean, self.sd**2))
        log_norm, half_prec, centred = float(self._log_norm), 0.5 / self.sd**2, self.mean != 0

        def logpdf(theta):
            # one ddot; its last bits differ from sum(((theta - mean) / sd)^2),
            # which is fine for a value that enters only accept/reject tests
            z = theta - mean if centred else theta
            return -half_prec * float(z.dot(z)) - z.size * log_norm

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
    a = w_i'(theta - theta0), stated as `row_remainder` on the theta-free
    terms `row_terms(eta0)` (Poisson: -exp(eta0)) that gathered rows hold, so
    no evaluation recomputes them.  Everything else is derived here from the
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

    def ell_terms(self, y, eta):
        """(ell, ell', ell'') at eta: the terms of the set-up pass.  A family
        may share work among them."""
        return self.ell(y, eta), self.ell_d1(y, eta), self.ell_d2(y, eta)

    def row_terms(self, eta0):
        """The theta-free row terms `row_remainder` reads; eta0 by default."""
        return eta0

    @abstractmethod
    def row_remainder(self, y, terms, a, order: int, grad: bool = False):
        """`remainder` on the rows' terms = row_terms(eta0)."""

    def remainder(self, y, eta0, a, order: int, grad: bool = False):
        """d = ell(eta0 + a) - sum_{j <= order} ell^(j)(eta0) a^j / j!, and
        with grad=True also s = dd/da, so the theta-gradient of d_i is
        s_i * w_i.  A family computes s only when asked for it."""
        return self.row_remainder(y, self.row_terms(eta0), a, order, grad)

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
        """Rows w_i = (1, x_i).  From a dataset's rows (y_i, x_i)
        (`Dataset.from_rows`) they are gathered whole, in one contiguous
        copy, and y_i is overwritten by the intercept: at 65 500 of 1e6
        six-column rows that took 0.9 ms against 4.7 ms for the strided X."""
        if dataset.rows is None:
            X = _take(dataset.X, idx)
            W = np.empty((X.shape[0], X.shape[1] + 1))
            W[:, 1:] = X
        elif idx is None or isinstance(idx, slice):
            W = _take(dataset.rows, idx).copy()
        else:
            idx = np.asarray(idx)
            W = (np.take(dataset.rows, idx, axis=0) if idx.dtype.kind in "iu"
                 else dataset.rows[idx])
        W[:, 0] = 1.0
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

    def taylor_sums(self, theta, dataset: Dataset, checked: bool = False):
        """One blocked pass over all observations at `theta`.

        Returns (eta, sum_i ell_i, W'ell', W'diag(ell'')W), the moments of
        every parameter-expanded cache whatever its order.  Each block
        writes its terms [ell, ell', diag(ell'')W] (`ell_terms`) into one
        C-contiguous buffer, allocated once per pass, and makes one BLAS
        product W'[ell', diag(ell'')W], so no (n, d, d) array and no (n, d)
        array beyond a block is formed.  The responses are validated here,
        once, unless `checked` says the caller has (`resolve` does, once per
        run); a non-finite term raises CacheBuildError naming its
        observation.
        """
        theta = np.asarray(theta, dtype=float)
        if not checked:
            self.check_response(dataset.y)
        d = theta.size
        eta = np.empty(dataset.n)
        sum_ell = 0.0
        moments = np.zeros((d, 1 + d))
        buf = np.empty((min(_BLOCK, dataset.n), 2 + d))
        for lo in range(0, dataset.n, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            y, W = dataset.y[rows], self.design(dataset, rows)
            e = eta[rows] = W @ theta
            cols = buf[:y.size]
            ell, d1, d2 = self.ell_terms(y, e)
            cols[:, 0] = ell
            cols[:, 1] = d1
            np.multiply(d2[:, None], W, out=cols[:, 2:])
            if not np.isfinite(cols).all():
                bad = np.argmin(np.isfinite(cols).all(axis=1))
                raise CacheBuildError(f"non-finite expansion quantity at observation {lo + bad}")
            sum_ell += float(np.sum(cols[:, 0]))
            moments += W.T @ cols[:, 1:]
        return eta, sum_ell, moments[:, 0], moments[:, 1:]


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

    def ell_terms(self, y, eta):
        # exp(eta) once for all three terms, and ell'' = -exp(eta) in its
        # buffer, so a block holds no more temporaries than one term at a time
        mu = np.exp(eta)
        return y * eta - mu - _log_factorial(y), y - mu, np.negative(mu, out=mu)

    def row_terms(self, eta0):
        return -np.exp(eta0)

    def row_remainder(self, y, neg_mu0, a, order, grad=False):
        # log y! and, from order 1 on, y * eta cancel exactly:
        # d = y a [order 0] - mu0 (expm1(a) - sum_{1 <= j <= order} a^j / j!);
        # adding -mu0 x rounds as subtracting mu0 x does
        e = np.expm1(a)
        if order == 0:
            d = y * a + neg_mu0 * e
            return (d, y + neg_mu0 * (e + 1.0)) if grad else d
        if order == 1:
            d = neg_mu0 * (e - a)
            return (d, neg_mu0 * e) if grad else d
        r1 = e - a
        d = neg_mu0 * (r1 - a * 0.5 * a)
        return (d, neg_mu0 * r1) if grad else d


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

    def row_remainder(self, y, eta0, a, order, grad=False):
        # For |a| <= 1, with p0 = sigmoid(eta0), q0 = 1 - p0 and e = expm1(a):
        #   softplus(eta0 + a) - softplus(eta0) = log1p(p0 e)
        #   sigmoid(eta0 + a) - p0             = p0 q0 e / (1 + p0 e)
        # so the leading Taylor terms cancel against small numbers; farther
        # out there is nothing to cancel and the plain differences are used.
        p0 = _sigmoid(eta0)
        q0 = _sigmoid(-eta0) if grad or order == 2 else None
        eta = eta0 + a
        near = np.abs(a) <= 1.0
        pe = p0 * np.expm1(np.clip(a, -1.0, 1.0))
        dsp = np.where(near, np.log1p(pe), self._softplus(eta) - self._softplus(eta0))
        if order == 0:
            d = y * a - dsp
        elif order == 1:
            d = p0 * a - dsp
        else:
            c0 = p0 * q0
            d = (p0 + c0 * 0.5 * a) * a - dsp
        if not grad:
            return d
        dp = np.where(near, q0 * pe / (1.0 + pe), _sigmoid(eta) - p0)
        return d, (y - p0 - dp if order == 0 else -dp if order == 1 else c0 * a - dp)


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

    def row_remainder(self, y, eta0, a, order, grad=False):
        # ell is quadratic in eta, so the second-order expansion is exact
        if order == 0:
            r = y - eta0
            d = (r - a * 0.5) * a
            return (d, r - a) if grad else d
        if order == 1:
            d = a * -0.5 * a
            return (d, -a) if grad else d
        d = np.zeros_like(a)
        return (d, np.zeros_like(a)) if grad else d

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
# about what this process parses while a worker starts Python and numpy;
# on a 102 MB file on a 2-core host, 12 alternating rounds loaded in a median
# 0.930 s at 8 MB, 0.955 s at 0, 0.949 s at 4 MB and 0.923 s at 12 MB
_FIRST_PART_EXTRA_BYTES = 8 << 20
_WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_csvpart.py")


def load_dataset(path) -> Dataset:
    """Read a `y,x1,...,xp` CSV: UTF-8, a header row, ',' delimiter,
    optional '"' quotes, blank lines skipped, '.' decimal point.

    A large file is cut at line ends into one part per usable core.  This
    process parses the first part while worker processes (`_csvpart.py`)
    parse the others, and their rows are read straight into place.  Each
    part is its byte span of the file, parsed by `np.loadtxt` under the
    decoding and newlines of the one-part parse from the path, so the
    values are those of one pass over the file, to the bit.
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
        workers.extend(_start_worker(path, span) for span in parts[1:])
        # each part as parsed rows, or as the (rows, cols) its worker announced
        results = [_parse_or_raise(path, width, parts[0])]
        for proc, span in zip(workers, parts[1:]):
            shape = _worker_shape(proc)
            results.append(_parse_or_raise(path, width, span) if shape is None else shape)
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
        for result, (rows, _), proc, span in zip(results, shapes, [None] + workers, parts):
            block = data[at:at + rows]
            at += rows
            if isinstance(result, np.ndarray):
                block[...] = result
            elif not _fill(proc.stdout, block.reshape(-1).view(np.uint8)):
                block[...] = _parse_or_raise(path, width, span)
    finally:
        for proc in workers:
            if proc is not None:
                proc.kill()
                proc.wait()
                proc.stdout.close()
    return Dataset.from_rows(data)


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


def _parts(raw) -> list[tuple[int, int] | None]:
    """The byte span (start, stop) of the data rows in each part of the
    binary file `raw`; [None] if the file is one part, parsed from its path.

    There is one part per usable core, none under _MIN_PART_BYTES, each
    ending just after a '\\n' or at the end of the file, and the first part
    is _FIRST_PART_EXTRA_BYTES longer than the others.  A '\\n' ends a line
    whether alone or after a '\\r', so each part starts on a line of the
    one-part parse.  A file is one part if a lone '\\r' ends a line before
    its first '\\n', since the one-part parse skips only that line as the
    header, or if a '"' follows its header line, since a quoted cell may
    hold a line break.
    """
    size = os.fstat(raw.fileno()).st_size
    k = _usable_cores()
    if _MIN_PART_BYTES:
        k = min(k, size // _MIN_PART_BYTES)
    first_line = _after_newline(raw, 0, size) if k > 1 else size
    if (first_line == size or any(b"\r" in block for block in _blocks(raw, 0, first_line - 2))
            or any(b'"' in block for block in _blocks(raw, first_line, size))):
        return [None]
    starts = _part_starts(raw, first_line, size, k)
    return list(zip(starts, starts[1:] + [size]))


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


def _start_worker(path, span: tuple[int, int]):
    """A worker process parsing the rows in the byte span `span`, or None
    if none starts."""
    if not sys.executable:
        return None
    try:
        return subprocess.Popen(
            [sys.executable, _WORKER, os.fspath(path), *map(str, span)],
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


def _parse_or_raise(path, width: int, span: tuple[int, int] | None) -> np.ndarray:
    """The rows in the byte span `span` (None: all after the header line);
    a parse error is raised naming its file line."""
    try:
        return parse(path, span=span)
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
    """The text of each value of one column.  A float is formatted once per
    run of equal bit patterns, so 0.0 and -0.0 keep their own text; most
    trace rows are rejections that repeat the row before."""
    if values.dtype.kind == "b":
        values = values.astype(np.int8)
    if values.dtype.kind != "f":
        return map(str, values.tolist())
    texts, prev = [], None
    for bits, value in zip(values.view(f"i{values.itemsize}").tolist(), values.tolist()):
        if bits != prev:
            text, prev = repr(value), bits
        texts.append(text)
    return texts


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
