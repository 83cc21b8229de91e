"""Ordinary least squares for segmented regression.

Coefficients are solved through an unpivoted QR factorization rather
than the normal equations. A design is rank deficient when a column's
distance from the span of the columns before it is tiny relative to the
column's own norm, a test that does not depend on the columns' scales;
the first such column is reported by name instead of silently producing
garbage. An RSS within the rounding of y is an exact fit, whose
likelihood is unbounded and whose t and p are undefined; the ARX fits
share both rules. Inference uses the unbiased residual variance; the
deviance the Gaussian MLE variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .distributions import student_t_two_sided_p
from .errors import FitError

RANK_TOLERANCE = 1e-10
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit: point estimates, inference, and likelihood summaries."""

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    residuals: np.ndarray
    fitted: np.ndarray
    rss: float
    sigma2_unbiased: float
    sigma2_mle: float
    log_likelihood: float
    deviance: float
    n: int
    k: int
    column_names: tuple[str, ...]
    covariance: np.ndarray  # unbiased-sigma2 coefficient covariance, column order

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[c] for c in self.column_names])


def fit_ols(design: DesignMatrix) -> OlsFit:
    """Fit the design by QR least squares with Student-t inference.

    Raises `FitError` naming the first column that depends linearly on the
    columns before it.
    """
    x = design.matrix
    y = design.outcome
    n, k = x.shape
    if n <= k:
        raise FitError(f"need more observations than parameters: n={n}, k={k}")

    q, r = np.linalg.qr(x)
    check_rank(r, design.column_names)

    r_inv = np.linalg.inv(r)  # LU of a triangular R swaps no rows: a triangular inverse
    beta = r_inv @ (q.T @ y)
    fitted = linear_predictor(x, beta)
    residuals = y - fitted
    rss = float(residuals @ residuals)
    df = n - k
    sigma2_unbiased = rss / df
    sigma2_mle = rss / n

    covariance = sigma2_unbiased * (r_inv @ r_inv.T)  # (X'X)^-1 = R^-1 R^-T

    se = np.sqrt(np.diag(covariance))
    if is_exact_fit(rss, y, n):  # se is rounding error, so t and p are undefined
        t_stats = np.full(k, math.nan)
        log_likelihood = math.inf  # unbounded; gaussian_deviance refuses it
    else:
        t_stats = beta / se
        log_likelihood = -0.5 * n * (math.log(2.0 * math.pi * sigma2_mle) + 1.0)

    names = design.column_names
    return OlsFit(
        coefficients=dict(zip(names, beta.tolist())),
        standard_errors=dict(zip(names, se.tolist())),
        t_stats=dict(zip(names, t_stats.tolist())),
        p_values=dict(zip(names, student_t_two_sided_p(t_stats, df).tolist())),
        residuals=residuals,
        fitted=fitted,
        rss=rss,
        sigma2_unbiased=sigma2_unbiased,
        sigma2_mle=sigma2_mle,
        log_likelihood=log_likelihood,
        deviance=-2.0 * log_likelihood,
        n=n,
        k=k,
        column_names=names,
        covariance=covariance,
    )


def dependent_columns(r: np.ndarray) -> np.ndarray:
    """Mask of the columns of a QR factor R (or a stack of them) with |R_jj| tiny against their norm.

    |R_jj| is column j's distance from the span of the columns before it, and
    R's column j has the norm of the factored column j. `np.hypot` sums its
    squares without underflow, so a column of tiny values is judged on its own
    scale; a distance below the smallest normal float has lost its precision.
    """
    tolerance = np.maximum(RANK_TOLERANCE * np.hypot.reduce(r, axis=-2), TINY)
    return np.abs(np.diagonal(r, axis1=-2, axis2=-1)) <= tolerance


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


def is_exact_fit(rss: float, y: np.ndarray, rows: int) -> bool:
    """Is an RSS of `rows` residuals of y within the rounding of y: RSS <= rows (10 eps max|y|)^2?

    A square below the smallest normal float has lost its precision, so an RSS
    below `rows` of those is within rounding too.
    """
    if rss <= rows * TINY:
        return True
    scale = rows * (10.0 * EPS) ** 2
    # max|y|^2 <= y'y, so the dot product settles most fits without the maximum
    return rss <= scale * float(y @ y) and rss <= scale * float(np.abs(y).max()) ** 2


def gaussian_deviance(fit: OlsFit) -> float:
    """-2 x Gaussian log-likelihood at the MLE plug-in variance RSS/n."""
    if fit.log_likelihood == math.inf:
        raise FitError("deviance is unbounded for an exact fit (RSS = 0 to the rounding of y)")
    return fit.deviance


def linear_predictor(matrix: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta as each row's sum of elementwise products: unlike BLAS, no row depends on the others."""
    return np.sum(matrix * beta, axis=1)


def predict(fit: OlsFit, design: DesignMatrix) -> np.ndarray:
    """Row-wise linear predictions X @ beta; columns must match the fit."""
    if design.column_names != fit.column_names:
        raise FitError(f"design columns {list(design.column_names)} do not match "
                       f"fit columns {list(fit.column_names)}")
    return linear_predictor(design.matrix, fit.beta)
