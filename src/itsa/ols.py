"""Ordinary least squares for segmented regression.

Coefficients are solved through one unpivoted QR factorization of
[X | y] rather than the normal equations. Only its R factor is formed,
read from LAPACK's raw Householder output with the bits of NumPy's mode "r":
its first k columns are X's R factor and its last is Q'y. A design is
rank deficient when a column's distance from the span of the columns
before it is tiny relative to the column's own norm, a test that does
not depend on the columns' scales; the first such column is reported by
name instead of silently producing garbage. The RSS is R[k, k]^2: one within the
rounding of y is an exact fit (unbounded likelihood, undefined t and p); one
there only by underflow, or not finite, is refused with its cause. The ARX fits
share these rules. Inference uses the unbiased residual variance: the covariance
is held as its factor F = sigma R^-1 and the standard errors are F's row norms,
so no column's scale underflows them. Residuals and inference are computed on
first read, p-values on each read. The deviance uses the Gaussian MLE variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .design import DesignMatrix
from .distributions import student_t_two_sided_p
from .errors import FitError

RANK_TOLERANCE = 1e-10
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of `design`: point estimates, the deviance, and inference and residuals on read."""

    coefficients: dict[str, float]
    rss: float
    deviance: float  # -2 x Gaussian log-likelihood at the MLE variance RSS/n; -inf for an exact fit
    n: int
    k: int
    column_names: tuple[str, ...]
    covariance_factor: np.ndarray  # F with F F' the unbiased-sigma2 coefficient covariance, column order
    design: DesignMatrix = field(repr=False)

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[c] for c in self.column_names])

    @cached_property
    def fitted(self) -> np.ndarray:
        return linear_predictor(self.design.matrix, self.beta)

    @cached_property
    def residuals(self) -> np.ndarray:
        return self.design.outcome - self.fitted

    @cached_property
    def standard_errors(self) -> dict[str, float]:  # sqrt(diag(F F')) with no square to underflow
        return dict(zip(self.column_names, np.hypot.reduce(self.covariance_factor, axis=1).tolist()))

    @cached_property
    def t_stats(self) -> dict[str, float]:  # NaN for an exact fit, whose se is rounding error
        se = np.array(list(self.standard_errors.values()))
        t_stats = self.beta / se if self.deviance > -math.inf else np.full(self.k, math.nan)
        return dict(zip(self.column_names, t_stats.tolist()))

    @property
    def p_values(self) -> dict[str, float]:
        """Two-sided Student-t p-values of `t_stats` on n - k degrees of freedom, computed on each read."""
        t_stats = np.array([self.t_stats[c] for c in self.column_names])
        return dict(zip(self.column_names, student_t_two_sided_p(t_stats, self.n - self.k).tolist()))


def fit_ols(design: DesignMatrix) -> OlsFit:
    """Fit the design by one R-only QR of [X | y], whose R[k, k]^2 is the RSS.

    Raises `FitError` naming the first column that depends linearly on the columns before it,
    or whose coefficient, else standard error, overflows, or the cause of an RSS not finite or underflowed.
    """
    x, y, names = design.matrix, design.outcome, design.column_names
    n, k = x.shape
    if n <= k:
        raise FitError(f"need more observations than parameters: n={n}, k={k}")

    xy = np.empty((n, k + 1), order="F")
    xy[:, :k], xy[:, k] = x, y
    r = r_factor(xy)  # [R | Q'y]: X's R factor, then y projected on Q
    check_rank(r[:k, :k], names)

    r_inv = np.linalg.inv(r[:k, :k])  # LU of a triangular R swaps no rows: a triangular inverse
    rss = float(r[k, k]) * float(r[k, k])  # |R[k, k]| = |y - X beta|; a product overflows to inf where ** raises
    check_rss(rss, design, names)
    if exact := rss <= exact_fit_bound(y, n):
        check_exact(r[k:, k], y, n)  # |R[k, k]| is the residual norm
    sigma = math.sqrt(rss / (n - k))  # F = sigma R^-1: unbiased sigma2 (X'X)^-1 = F F', as (X'X)^-1 = R^-1 R^-T
    try:
        with np.errstate(over="raise", invalid="raise"):
            beta, factor = r_inv @ r[:k, k], sigma * r_inv
    except FloatingPointError:  # name the first column whose coefficient, else standard error, overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            check_coefficients(names, (r_inv @ r[:k, k]).tolist())
            check_coefficients(names, np.hypot.reduce(sigma * r_inv, axis=1).tolist(), "standard error")
        raise
    deviance = -math.inf if exact else n * (math.log(2.0 * math.pi * (rss / n)) + 1.0)

    return OlsFit(
        coefficients=dict(zip(names, beta.tolist())),
        rss=rss,
        deviance=deviance,
        n=n,
        k=k,
        column_names=names,
        covariance_factor=factor,
        design=design,
    )


def r_factor(a: np.ndarray) -> np.ndarray:
    """R of the QR of `a` or of each matrix of a stack: the bits of NumPy's QR in mode "r", less its `triu`."""
    h = np.linalg.qr(a, mode="raw")[0].mT  # LAPACK's output in a's shape: R on and above the diagonal
    rows = min(h.shape[-2:])
    return np.where(_upper_triangle(rows, h.shape[-1]), h[..., :rows, :], 0.0)


@cache
def _upper_triangle(rows: int, columns: int) -> np.ndarray:
    mask = np.triu(np.ones((rows, columns), dtype=bool))  # one read-only mask per size
    mask.flags.writeable = False
    return mask


def dependent_columns(r: np.ndarray) -> np.ndarray:
    """Mask of the columns of a QR factor R (or a stack of them) with |R_jj| tiny against their norm.

    |R_jj| is column j's distance from the span of the columns before it, and
    R's column j has the norm of the factored column j. `np.hypot` sums its
    squares without underflow, so a column of tiny values is judged on its own
    scale; a distance below the smallest normal float has lost its precision.
    """
    tolerance = np.maximum(RANK_TOLERANCE * np.hypot.reduce(r, axis=-2), TINY)
    return abs(r.diagonal(axis1=-2, axis2=-1)) <= tolerance


def check_rank(r: np.ndarray, names) -> None:
    """Raise `FitError` naming the first of the `dependent_columns` of R.

    A stack of designs has a leading member axis and a tuple of names per member.
    """
    dependent = dependent_columns(r)
    if dependent.any():
        *member, j = np.argwhere(dependent)[0]
        column = (names[member[0]] if member else names)[j]
        raise FitError(f"design is rank deficient: column {column!r} is linearly dependent "
                       "on the columns before it")


def exact_fit_bound(y: np.ndarray, rows: int) -> float:
    """The largest RSS of `rows` residuals within y's rounding: max(rows TINY, rows (10 eps max|y|)^2).

    TINY, the smallest normal float, bounds squares that have lost their precision.
    The square is a product, which overflows to inf where ** would raise.
    """
    scale = 10.0 * EPS * float(np.abs(y).max())
    return rows * max(TINY, scale * scale)


def check_exact(residuals: np.ndarray, y: np.ndarray, rows: int) -> None:
    """Raise `FitError` for a fit whose RSS is within `exact_fit_bound` only because its squares underflowed."""
    scale = 10.0 * max(EPS * float(np.abs(y).max()), 5e-324)  # 10 ulps of max|y|, subnormal or not
    if scale * scale < TINY and np.hypot.reduce(residuals) > math.sqrt(rows) * scale:
        raise FitError("the outcome is too small: the sum of squares of its residuals underflows")


def check_rss(rss: float, design: DesignMatrix, names) -> None:
    """Raise `FitError` naming the cause of an RSS that is not finite, from a fit of the named columns.

    The cause is the first of them, else the outcome, with a non-finite value; with neither, overflow.
    """
    if math.isfinite(rss):
        return
    named = [(f"design column {name!r}", design.column(name)) for name in names]
    for what, values in [*named, ("the outcome", design.outcome)]:
        if not np.isfinite(values).all():
            raise FitError(f"{what} holds a non-finite value")
    raise FitError("the outcome is too large: the sum of squares of its residuals overflows")


def check_coefficients(names, values, what: str = "coefficient") -> None:
    """Raise `FitError` naming the first column whose coefficient (or `what`) overflowed, so is not finite."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise FitError(f"design column {name!r} is too small for the outcome: its {what} overflows")


def gaussian_deviance(fit: OlsFit) -> float:
    """-2 x Gaussian log-likelihood at the MLE plug-in variance RSS/n."""
    if fit.deviance == -math.inf:
        raise FitError("deviance is unbounded for an exact fit (RSS = 0 to the rounding of y)")
    return fit.deviance


def linear_predictor(matrix: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta as each row's running sum of products in column order: unlike BLAS or `np.sum`,
    no row's rounding depends on the other rows or on the memory layout."""
    terms = matrix * beta
    return np.add.accumulate(terms, axis=1)[:, -1] if terms.shape[1] else np.zeros(len(terms))
