"""Serial-correlation diagnostics for residuals and outcome series.

Provides the Durbin-Watson statistic with a design-specific
moment-based normal approximation for its p-value, the sample
autocorrelation function with white-noise bands, and the Ljung-Box
portmanteau test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .distributions import chi_square_sf, normal_cdf, normal_quantile
from .errors import FitError


@dataclass(frozen=True)
class DwResult:
    statistic: float
    p_value: float  # one-sided, against positive autocorrelation
    null_mean: float
    null_variance: float


@dataclass(frozen=True)
class AcfResult:
    correlations: tuple[float, ...]  # at lags 1, 2, ...
    band: float  # +-band bounds 95% of a white-noise series' autocorrelations


@dataclass(frozen=True)
class LjungBoxResult:
    statistic: float
    df: int
    p_value: float


def durbin_watson(residuals) -> float:
    """d = sum of squared first differences over the residual sum of squares.

    d does not depend on the residuals' scale, so they are first scaled by a power of two
    (exactly) to a largest magnitude in [0.5, 1): neither sum overflows at any finite scale.
    """
    e = np.asarray(residuals, dtype=float)
    if len(e) < 2:
        raise FitError(f"need at least 2 residuals, got {len(e)}")
    e = np.ldexp(e, -np.frexp(np.abs(e).max())[1])
    denom = float(e @ e)
    if denom == 0.0:
        raise FitError("Durbin-Watson is undefined for all-zero residuals")
    return float(np.sum(np.diff(e) ** 2) / denom)


def dw_p_value(d: float, design: DesignMatrix) -> DwResult:
    """Left-tail p-value for d under the no-autocorrelation null.

    The null mean and variance of d depend only on the design: they are
    computed from traces of the first-difference quadratic form weighted
    by the residual projector, then referred to a normal approximation.
    Small d means positive serial correlation, hence the left tail.
    """
    x = design.matrix
    n, k = x.shape
    if n - k < 2:
        raise FitError(f"design too small for the moment formulas: n - k = {n - k}")
    # M = I - QQ'; A = D'D (D the first difference) is applied to Q by slicing.
    q, _ = np.linalg.qr(x)
    dq = np.diff(q, axis=0)  # DQ
    aq = np.diff(dq, axis=0, prepend=0.0, append=0.0)  # -AQ
    qaq = dq.T @ dq
    nk = n - k
    tr1 = (2 * n - 2) - float(np.trace(qaq))  # tr A = 2n - 2
    tr2 = (6 * n - 8) - 2.0 * float(np.sum(aq**2)) + float(np.sum(qaq**2))  # tr A^2 = 6n - 8
    mean = tr1 / nk
    second_moment = (tr1**2 + 2.0 * tr2) / (nk * (nk + 2))
    variance = second_moment - mean**2
    if variance <= 0:
        raise FitError("degenerate null variance for the Durbin-Watson statistic")
    p = normal_cdf((d - mean) / variance**0.5)
    return DwResult(statistic=d, p_value=p, null_mean=mean, null_variance=variance)


def _autocorrelations(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag (biased 1/n denominator) of each series on the last axis,
    each lag summed one row at a time: a row of a stack gets the bits it gets alone. As in `durbin_watson`,
    each series is first scaled exactly, by a power of two, to a largest magnitude in [0.5, 1)."""
    y = np.asarray(series, dtype=float)
    n = y.shape[-1]
    if not 1 <= max_lag < n:
        raise FitError(f"max_lag must lie in [1, {n - 1}], got {max_lag}")
    y = np.ldexp(y, -np.frexp(abs(y).max(axis=-1, keepdims=True))[1])
    yc = y - y.mean(axis=-1, keepdims=True)
    denom = np.vecdot(yc, yc)
    if (denom == 0.0).any():
        raise FitError("autocorrelation is undefined for a constant series")
    sums = np.empty((*y.shape[:-1], max_lag))
    for h in range(1, max_lag + 1):
        sums[..., h - 1] = np.vecdot(yc[..., h:], yc[..., :-h])
    return sums / denom[..., None]


def acf(series, max_lag: int) -> AcfResult:
    """Sample autocorrelations at lags 1..max_lag with the 95% white-noise band."""
    corr = _autocorrelations(series, max_lag)
    return AcfResult(tuple(corr.tolist()), band=normal_quantile(0.975) / len(series) ** 0.5)


def ljung_box_statistic(residuals, lags: int) -> np.ndarray:
    """Q = n(n + 2) sum_h r_h^2 / (n - h), h = 1..lags, of each series on the last axis."""
    n = np.shape(residuals)[-1]
    h = np.arange(1, lags + 1)
    return n * (n + 2) * np.sum(_autocorrelations(residuals, lags) ** 2 / (n - h), axis=-1)


def ljung_box(residuals, lags: int, fitted_params: int = 0) -> LjungBoxResult:
    """Ljung-Box whiteness test with df = lags - fitted_params."""
    e = np.asarray(residuals, dtype=float)
    n = len(e)
    if fitted_params < 0:
        raise FitError(f"fitted_params must be non-negative, got {fitted_params}")
    if lags <= fitted_params:
        raise FitError(f"need lags > fitted_params, got lags={lags}, fitted_params={fitted_params}")
    if lags >= n / 2:
        raise FitError(f"need lags < n/2, got lags={lags} with n={n}")
    q = float(ljung_box_statistic(e, lags))
    df = lags - fitted_params
    return LjungBoxResult(statistic=q, df=df, p_value=chi_square_sf(q, df))

