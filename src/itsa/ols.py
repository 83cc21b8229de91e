"""Ordinary least squares for segmented regression.

Coefficients are solved through an unpivoted QR factorization rather
than the normal equations. A design is rank deficient when a column's
distance from the span of the columns before it is tiny relative to the
column's own norm, a test that does not depend on the columns' scales;
the first such column is reported by name instead of silently producing
garbage. Inference uses the unbiased residual variance; the deviance
uses the Gaussian maximum-likelihood plug-in variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .distributions import student_t_two_sided_p
from .errors import FitError

RANK_TOLERANCE = 1e-10


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

    def to_json_dict(self) -> dict:
        return {
            "coefficients": {
                name: {
                    "estimate": self.coefficients[name],
                    "se": self.standard_errors[name],
                    "t": self.t_stats[name],
                    "p": self.p_values[name],
                }
                for name in self.column_names
            },
            "rss": self.rss,
            "deviance": self.deviance,
            "n": self.n,
            "k": self.k,
        }


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
    # |R_jj| is column j's distance from the span of the columns before it
    dependent = np.abs(np.diag(r)) <= RANK_TOLERANCE * np.linalg.norm(x, axis=0)
    if dependent.any():
        raise FitError(
            f"design is rank deficient: column {design.column_names[np.argmax(dependent)]!r} "
            "is linearly dependent on the columns before it"
        )

    r_inv = np.linalg.inv(r)  # LU of a triangular R swaps no rows: a triangular inverse
    beta = r_inv @ (q.T @ y)
    fitted = x @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    df = n - k
    sigma2_unbiased = rss / df
    sigma2_mle = rss / n

    covariance = sigma2_unbiased * (r_inv @ r_inv.T)  # (X'X)^-1 = R^-1 R^-T

    se = np.sqrt(np.diag(covariance))
    t_stats = beta / se
    p_values = [student_t_two_sided_p(float(t), df) for t in t_stats]

    if _effectively_interpolating(rss, fitted):
        log_likelihood = math.inf  # degenerate; gaussian_deviance refuses it
    else:
        log_likelihood = -0.5 * n * (math.log(2.0 * math.pi * sigma2_mle) + 1.0)

    names = design.column_names
    return OlsFit(
        coefficients=dict(zip(names, beta.tolist())),
        standard_errors=dict(zip(names, se.tolist())),
        t_stats=dict(zip(names, t_stats.tolist())),
        p_values=dict(zip(names, p_values)),
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


def _effectively_interpolating(rss: float, fitted: np.ndarray) -> bool:
    return rss <= 1e-12 * max(1.0, float(fitted @ fitted))


def gaussian_deviance(fit: OlsFit) -> float:
    """-2 x Gaussian log-likelihood at the MLE plug-in variance RSS/n."""
    if _effectively_interpolating(fit.rss, fit.fitted):
        raise FitError("deviance is unbounded for an interpolating fit (RSS = 0)")
    return fit.deviance


def predict(fit: OlsFit, design: DesignMatrix) -> np.ndarray:
    """Row-wise linear predictions X @ beta; columns must match the fit."""
    if design.column_names != fit.column_names:
        raise FitError(
            f"design columns {list(design.column_names)} do not match "
            f"fit columns {list(fit.column_names)}"
        )
    return design.matrix @ fit.beta
