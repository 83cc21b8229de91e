"""Autoregressive intervention models with exogenous regressors.

An ARX(p) model regresses the outcome on exogenous columns and feeds
the last p regression errors back into the prediction:

    y_t = x_t'b + sum_j phi_j * (y_{t-j} - x_{t-j}'b) + e_t

Estimation maximizes the Gaussian likelihood conditional on the first
p observations, with the innovation variance profiled out analytically.
Intervention significance is assessed by a likelihood-ratio test
between a baseline model (no intervention columns) and the full model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .diagnostics import ljung_box
from .distributions import chi_square_quantile, chi_square_sf
from .errors import FitError

# Convergence is judged by the relative offset |J d| / |e| of the Gauss-Newton
# step d (Bates & Watts 1981): the share of the residual norm the linearized
# model could still remove. Unlike the gradient, it does not scale with y.
OFFSET_TOLERANCE = 1e-6
STOP_TOLERANCE = 1e-10  # Gauss-Newton keeps stepping until this, 1e-4 x the test above
MAX_ITERATIONS = 50
MAX_HALVINGS = 30
WHITENESS_LAGS = 10
WHITENESS_ALPHA = 0.05


@dataclass(frozen=True)
class ArxSpec:
    """Model order and exogenous column names (intercept included explicitly)."""

    order: int
    exogenous_columns: tuple[str, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.order < 0:
            raise FitError(f"autoregressive order must be non-negative, got {self.order}")
        if not self.exogenous_columns:
            raise FitError("at least one exogenous column (the intercept) is required")


@dataclass(frozen=True)
class ArxFit:
    """Conditional-ML estimate of an ARX(p) model."""

    order: int
    exogenous_columns: tuple[str, ...]
    phi: tuple[float, ...]
    beta: dict[str, float]
    standard_errors: dict[str, float]  # keys: exogenous names and "phi1".."phip"
    covariance: np.ndarray  # inverse observed information, order (exogenous..., phi...)
    sigma2: float
    log_likelihood: float
    deviance: float
    residuals: np.ndarray  # one-step conditional residuals, length n - conditioning
    converged: bool
    iterations: int  # accepted Newton or Gauss-Newton steps
    stop_reason: str  # "offset", "max_iterations" or "no_descent"
    n: int
    n_effective: int
    conditioning: int  # initial observations held fixed (>= order)
    param_count: int  # order + exogenous + innovation variance
    stationary: bool
    label: str = ""

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "phi": list(self.phi),
            "beta": dict(self.beta),
            "se": dict(self.standard_errors),
            "sigma2": self.sigma2,
            "deviance": self.deviance,
            "n_effective": self.n_effective,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class LrtResult:
    """Likelihood-ratio comparison of nested ARX fits."""

    lambda_: float
    deviance_baseline: float
    deviance_full: float
    df: int
    critical_value: float
    p_value: float
    significant: bool
    alpha: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "df": self.df,
            "critical": self.critical_value,
            "p": self.p_value,
            "significant": self.significant,
        }


@dataclass(frozen=True)
class CandidateRecord:
    """One entry of the baseline-selection trace."""

    label: str
    order: int
    exogenous_columns: tuple[str, ...]
    deviance: float
    bic: float
    whiteness_p: float
    converged: bool
    admissible: bool


@dataclass(frozen=True)
class SelectionResult:
    """Best admissible baseline fit plus the full ranked candidate trace."""

    best: ArxFit | None
    trace: tuple[CandidateRecord, ...]
    message: str = ""


def fit_arx(design: DesignMatrix, spec: ArxSpec, conditioning: int | None = None) -> ArxFit:
    """Maximize the conditional Gaussian likelihood over (beta, phi).

    The first `conditioning` observations (default: the model order) are
    held fixed and the innovation variance is profiled out, so the
    estimate minimizes the residual sum of squares, which is bilinear in
    beta and phi. It is found by safeguarded Newton steps from the plain-OLS
    starting point, and the covariance is the inverse of the exact Hessian of
    the profiled negative log-likelihood. Nonconvergence is reported through
    the `converged` flag, not silently ignored.
    """
    p = spec.order
    cond = p if conditioning is None else conditioning
    if cond < p:
        raise FitError(f"conditioning window {cond} is smaller than the order {p}")
    x = design.columns(spec.exogenous_columns)
    y = design.outcome
    n, k = x.shape
    if n <= 2 * (p + k):
        raise FitError(f"need n > 2(p + k) observations: n={n}, p={p}, k={k}")
    ne = n - cond

    def residuals_and_jacobian(theta):
        """One-step residuals for t = cond..n-1 (0-based) and their Jacobian."""
        beta, phi = theta[:k], theta[k:]
        u = y - x @ beta
        lagged_u = (u[cond - j : n - j] for j in range(1, p + 1))
        return _ar_filter(u, phi, cond), -np.column_stack([_ar_filter(x, phi, cond), *lagged_u])

    # Newton steps from the OLS point, or the Gauss-Newton step where the exact
    # RSS Hessian J'J + C is not positive definite. A step is halved while it
    # raises the RSS by more than the rounding of a sum of n_e squares, so that
    # steps too small for the RSS to register are still taken whole.
    theta = np.concatenate([np.linalg.lstsq(x, y, rcond=None)[0], np.zeros(p)])
    e, jac = residuals_and_jacobian(theta)
    rss = float(e @ e)
    rounding = 1.0 + ne * np.finfo(float).eps
    iterations = 0
    while True:
        if rss == 0.0:
            raise FitError("the model fits the data exactly; the likelihood is unbounded")
        g, rss_hessian = e @ jac, jac.T @ jac  # half the RSS gradient and Hessian
        for j in range(1, p + 1):  # C: d2e_t / dbeta dphi_j = +x_{t-j}
            rss_hessian[:k, k + j - 1] += e @ x[cond - j : n - j]
            rss_hessian[k + j - 1, :k] = rss_hessian[:k, k + j - 1]
        step = np.linalg.lstsq(jac, -e, rcond=None)[0]
        offset = float(np.linalg.norm(jac @ step)) / math.sqrt(rss)
        if offset <= STOP_TOLERANCE or iterations == MAX_ITERATIONS:
            stop_reason = "offset" if offset <= STOP_TOLERANCE else "max_iterations"
            break
        try:
            np.linalg.cholesky(rss_hessian)  # raises unless positive definite
            step = np.linalg.solve(rss_hessian, -g)
        except np.linalg.LinAlgError:
            pass  # keep the Gauss-Newton step
        for _ in range(MAX_HALVINGS):
            e_new, jac_new = residuals_and_jacobian(theta + step)
            rss_new = float(e_new @ e_new)
            if rss_new <= rss * rounding:
                break
            step *= 0.5
        else:  # no step along the chosen direction lowers the RSS
            stop_reason = "no_descent"
            break
        theta, e, jac, rss = theta + step, e_new, jac_new, rss_new
        iterations += 1
    log_likelihood = -0.5 * ne * (math.log(2.0 * math.pi * rss / ne) + 1.0)
    sigma2 = rss / ne
    converged = offset <= OFFSET_TOLERANCE
    beta, phi = theta[:k], theta[k:]

    # exact Hessian of the profiled negative log-likelihood
    hessian = rss_hessian / sigma2 - 2.0 * np.outer(g, g) / (ne * sigma2**2)
    try:
        covariance = np.linalg.inv(hessian)
        if np.any(np.diag(covariance) <= 0):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        covariance = np.full((k + p, k + p), math.nan)
    se = np.sqrt(np.diag(covariance)) if np.all(np.isfinite(covariance)) else np.full(len(theta), math.nan)
    se_names = list(spec.exogenous_columns) + [f"phi{j}" for j in range(1, p + 1)]

    stationary = _is_stationary(phi)
    if not stationary:
        warnings.warn(
            f"ARX({p}) fit {spec.label or spec.exogenous_columns} has an autoregressive "
            "root at or inside the unit circle; estimates may be unstable",
            stacklevel=2,
        )

    return ArxFit(
        order=p,
        exogenous_columns=spec.exogenous_columns,
        phi=tuple(phi.tolist()),
        beta=dict(zip(spec.exogenous_columns, beta.tolist())),
        standard_errors=dict(zip(se_names, se.tolist())),
        covariance=covariance,
        sigma2=sigma2,
        log_likelihood=log_likelihood,
        deviance=-2.0 * log_likelihood,
        residuals=e,
        converged=converged,
        iterations=iterations,
        stop_reason=stop_reason,
        n=n,
        n_effective=ne,
        conditioning=cond,
        param_count=p + k + 1,
        stationary=stationary,
        label=spec.label,
    )


def _ar_filter(z: np.ndarray, phi, cond: int) -> np.ndarray:
    """z_t - sum_j phi_j z_{t-j} for t = cond..n-1, rows of a vector or a matrix."""
    n = len(z)
    out = z[cond:].copy()
    for j, ph in enumerate(phi, start=1):
        out -= ph * z[cond - j : n - j]
    return out


def _is_stationary(phi: np.ndarray) -> bool:
    if len(phi) == 0 or not np.any(phi):
        return True
    # roots of 1 - phi1 z - ... - phip z^p must lie outside the unit circle
    roots = np.roots(np.concatenate([[1.0], -np.asarray(phi)])[::-1])
    return bool(np.all(np.abs(roots) > 1.0 + 1e-8))


def arx_deviance(fit: ArxFit) -> float:
    """-2 x conditional log-likelihood at the optimum."""
    if not fit.converged:
        raise FitError(
            f"fit did not converge (relative Gauss-Newton offset above "
            f"{OFFSET_TOLERANCE:g}); deviance would be unreliable"
        )
    return fit.deviance


def predict_arx(fit: ArxFit, design: DesignMatrix) -> np.ndarray:
    """One-step-ahead in-sample predictions; leading values are NaN.

    The first `conditioning` entries have no lagged errors available and
    are returned as NaN rather than extrapolated.
    """
    x = design.columns(fit.exogenous_columns)
    y = design.outcome
    u = y - x @ np.array([fit.beta[c] for c in fit.exogenous_columns])
    out = np.full(len(y), np.nan)
    out[fit.conditioning:] = y[fit.conditioning:] - _ar_filter(u, fit.phi, fit.conditioning)
    return out


def select_baseline(
    design: DesignMatrix,
    max_order: int,
    candidate_exogenous: list[tuple[str, ...]] | list[list[str]],
) -> SelectionResult:
    """Grid-search orders 0..max_order x exogenous sets for the baseline model.

    Intervention columns are excluded from candidates by construction.
    All candidates are scored on a common estimation window (the first
    `max_order` observations held fixed) so their likelihoods are
    comparable, then ranked by BIC among fits whose residuals pass a
    Ljung-Box whiteness check (WHITENESS_LAGS lags, p > WHITENESS_ALPHA).
    The winner is refit on its own natural window before being returned.
    """
    if max_order < 0:
        raise FitError(f"max_order must be non-negative, got {max_order}")
    for columns in candidate_exogenous:
        for name in columns:
            if name in design.intervention_columns:
                raise FitError(
                    f"candidate exogenous set {tuple(columns)} contains the "
                    f"intervention column {name!r}"
                )

    n_common = design.n - max_order
    trace: list[CandidateRecord] = []
    for columns in candidate_exogenous:
        columns = tuple(columns)
        for order in range(max_order + 1):
            label = f"ARX({order}) {'+'.join(columns)}"
            spec = ArxSpec(order=order, exogenous_columns=columns, label=label)
            fit = fit_arx(design, spec, conditioning=max_order)
            bic = fit.deviance + fit.param_count * math.log(n_common)
            if WHITENESS_LAGS > order:
                lb = ljung_box(fit.residuals, WHITENESS_LAGS, fitted_params=order)
                whiteness_p = lb.p_value
            else:
                whiteness_p = math.nan
            admissible = fit.converged and whiteness_p > WHITENESS_ALPHA
            trace.append(
                CandidateRecord(
                    label=label,
                    order=order,
                    exogenous_columns=columns,
                    deviance=fit.deviance,
                    bic=bic,
                    whiteness_p=whiteness_p,
                    converged=fit.converged,
                    admissible=admissible,
                )
            )

    ranked = tuple(sorted(trace, key=lambda rec: rec.bic))
    winner = next((rec for rec in ranked if rec.admissible), None)
    if winner is None:
        return SelectionResult(
            best=None,
            trace=ranked,
            message="no candidate passed the residual whiteness check",
        )
    spec = ArxSpec(winner.order, winner.exogenous_columns, winner.label)
    best = fit_arx(design, spec)  # natural conditioning window for reporting
    return SelectionResult(best=best, trace=ranked, message=f"selected {winner.label}")


def likelihood_ratio_test(baseline: ArxFit, full: ArxFit, alpha: float = 0.05) -> LrtResult:
    """Deviance-difference test of nested ARX fits against chi-square."""
    if not baseline.converged:
        raise FitError("baseline fit did not converge")
    if not full.converged:
        raise FitError("full fit did not converge")
    if not set(baseline.exogenous_columns) <= set(full.exogenous_columns):
        raise FitError(
            "models are not nested: baseline columns "
            f"{list(baseline.exogenous_columns)} are not a subset of "
            f"{list(full.exogenous_columns)}"
        )
    if baseline.order > full.order:
        raise FitError(
            f"models are not nested: baseline order {baseline.order} exceeds "
            f"full order {full.order}"
        )
    if baseline.n != full.n or baseline.conditioning != full.conditioning:
        raise FitError(
            "fits use different data rows: "
            f"n={baseline.n}/{full.n}, conditioning={baseline.conditioning}/{full.conditioning}"
        )
    lam = baseline.deviance - full.deviance
    if lam < -1e-6:
        raise FitError(
            f"negative likelihood-ratio statistic ({lam:.6g}): the full-model "
            "optimizer found a worse optimum than the nested baseline"
        )
    df = full.param_count - baseline.param_count  # 0 when the fits have the same terms
    critical = chi_square_quantile(1.0 - alpha, df) if df > 0 else 0.0
    return LrtResult(
        lambda_=lam,
        deviance_baseline=baseline.deviance,
        deviance_full=full.deviance,
        df=df,
        critical_value=critical,
        p_value=chi_square_sf(max(lam, 0.0), df) if df > 0 else 1.0,
        significant=df > 0 and lam > critical,
        alpha=alpha,
    )
