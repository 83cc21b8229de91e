"""Statistical distribution functions used for inference.

Normal, Student-t and chi-square tail probabilities and quantiles as
thin wrappers over `scipy.special`, which evaluates them to near
machine precision. Each wrapper checks its arguments and raises
`ItsaError` on values outside the distribution's domain.
"""

from __future__ import annotations

import math

from scipy import special

from .errors import ItsaError


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    if math.isnan(z) or math.isinf(z):
        raise ItsaError(f"argument must be finite, got {z}")
    return float(special.ndtr(z))


def normal_sf(z: float) -> float:
    """Standard normal survival function 1 - CDF(z)."""
    return normal_cdf(-z)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ItsaError(f"probability must lie in (0, 1), got {p}")
    return float(special.ndtri(p))


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value 2*P(T >= |t|) for Student-t with df degrees of freedom."""
    if df <= 0:
        raise ItsaError(f"degrees of freedom must be positive, got {df}")
    return float(special.betainc(0.5 * df, 0.5, df / (df + t * t)))


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x)."""
    if df < 1:
        raise ItsaError(f"degrees of freedom must be a positive integer, got {df}")
    if x < 0:
        raise ItsaError(f"argument must be non-negative, got {x}")
    return float(special.gammaincc(0.5 * df, 0.5 * x))


def chi_square_quantile(prob: float, df: int) -> float:
    """Value x with P(X <= x) = prob."""
    if df < 1:
        raise ItsaError(f"degrees of freedom must be a positive integer, got {df}")
    if not 0.0 < prob < 1.0:
        raise ItsaError(f"probability must lie in (0, 1), got {prob}")
    return float(special.chdtri(df, 1.0 - prob))
