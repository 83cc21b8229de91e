"""Autoregressive intervention models with exogenous regressors.

An ARX(p) model regresses the outcome on exogenous columns and feeds
the last p regression errors back into the prediction:

    y_t = x_t'b + sum_j phi_j * (y_{t-j} - x_{t-j}'b) + e_t

Estimation maximizes the Gaussian likelihood conditional on the first
p observations, with the innovation variance profiled out analytically.
Intervention significance is assessed by a likelihood-ratio test
between a baseline model (no intervention columns) and the full model.
The Newton iteration runs on the R factor of the lag pool, the lags of y
and of the exogenous columns, so its work does not grow with n. A fit's
covariance factor and standard errors are computed on first read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .design import DesignMatrix
from .diagnostics import ljung_box_statistic
from .distributions import chi_square_quantile, chi_square_sf
from .errors import FitError
from .ols import (EPS, check_coefficients, check_exact, check_rank, check_rss, dependent_columns,
                  exact_fit_bound, r_factor)

# Convergence is judged by the relative offset |J d| / |e| of the Gauss-Newton
# step d (Bates & Watts 1981): the share of the residual norm the linearized
# model could still remove. Unlike the gradient, it does not scale with y.
OFFSET_TOLERANCE = 1e-6
STOP_TOLERANCE = 1e-10  # Gauss-Newton keeps stepping until this, 1e-4 x the test above
MAX_ITERATIONS = 50
MAX_HALVINGS = 30
WHITENESS_LAGS = 10
WHITENESS_ALPHA = 0.05
LRT_ALPHA = 0.05


@dataclass(frozen=True)
class ArxSpec:
    """Model order and exogenous column names (intercept included explicitly)."""

    order: int
    exogenous_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise FitError(f"autoregressive order must be non-negative, got {self.order}")
        if not self.exogenous_columns:
            raise FitError("at least one exogenous column (the intercept) is required")

    @property
    def label(self) -> str:
        return f"ARX({self.order}) {'+'.join(self.exogenous_columns)}"


@dataclass(frozen=True)
class ArxFit:
    """Conditional-ML estimate of an ARX(p) model; `covariance_factor` and `standard_errors` on first read."""

    order: int
    exogenous_columns: tuple[str, ...]
    phi: tuple[float, ...]
    coefficients: dict[str, float]  # the exogenous coefficients by name
    sigma2: float
    deviance: float  # -2 x conditional log-likelihood at the profiled sigma2
    residuals: np.ndarray  # one-step conditional residuals, length n - conditioning
    fitted: np.ndarray  # one-step predictions y_t - e_t over the same weeks
    converged: bool
    iterations: int  # accepted Newton or Gauss-Newton steps
    stop_reason: str  # "offset", "max_iterations" or "no_descent"
    n: int
    conditioning: int  # initial observations held fixed (>= order)
    param_count: int  # order + exogenous + innovation variance
    stationary: bool
    _information: tuple = field(repr=False)  # padded information matrix, each slot's shift, the kept slots

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[c] for c in self.exogenous_columns])

    @cached_property
    def covariance_factor(self) -> np.ndarray:
        """F with F F' the inverse observed information, order (exogenous..., phi...); NaN where it has none."""
        information, shift, keep = self._information
        with np.errstate(over="ignore"):  # a factor that overflows gets NaN se
            factor = np.ldexp(math.sqrt(self.sigma2) * _inverse_factor(information), -shift[:, None])
        return factor.take(keep, axis=0).take(keep, axis=1)

    @cached_property
    def standard_errors(self) -> dict[str, float]:  # keys: exogenous names and "phi1".."phip"
        factor = self.covariance_factor
        se = np.hypot.reduce(factor, axis=1) if np.isfinite(factor).all() else np.full(len(factor), math.nan)
        return dict(zip([*self.exogenous_columns, *(f"phi{j}" for j in range(1, self.order + 1))], se.tolist()))

    @property
    def label(self) -> str:
        return ArxSpec(self.order, self.exogenous_columns).label


@dataclass(frozen=True)
class LrtResult:
    """Likelihood-ratio comparison of nested ARX fits."""

    lambda_: float
    df: int
    critical_value: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class CandidateRecord:
    """One entry of the baseline-selection trace: a candidate's fit on the common window, scored."""

    fit: ArxFit
    bic: float
    whiteness_p: float  # NaN when the order leaves no whiteness lags
    admissible: bool


@dataclass(frozen=True)
class SelectionResult:
    """Best admissible baseline fit plus the full ranked candidate trace."""

    best: ArxFit | None
    trace: tuple[CandidateRecord, ...]


def fit_arx(design: DesignMatrix, spec: ArxSpec, conditioning: int | None = None) -> ArxFit:
    """Maximize the conditional Gaussian likelihood over (beta, phi).

    The first `conditioning` observations (default: the model order) are
    held fixed and the innovation variance is profiled out, so the
    estimate minimizes the residual sum of squares, which is bilinear in
    beta and phi. It is found by safeguarded Newton steps from the plain-OLS
    starting point, and the covariance factor F has F F' the inverse of the exact
    Hessian of the profiled negative log-likelihood. Nonconvergence is reported through
    the `converged` flag, not silently ignored.
    """
    return _fit_stack(design, [spec], spec.order if conditioning is None else conditioning)[0]


def fit_nested(design: DesignMatrix, fit: ArxFit, columns: tuple[str, ...]) -> list[ArxFit]:
    """`fit`'s order and columns with columns[:1], columns[:2], ... added, as one stack on its rows.

    Each member is the fit `fit_arx(design, spec, conditioning=fit.conditioning)` gives alone, up to
    rounding, and is nested in the one before it (`fit` first), as `likelihood_ratio_test` requires.
    """
    specs = [ArxSpec(fit.order, fit.exogenous_columns + columns[:i]) for i in range(1, len(columns) + 1)]
    return _fit_stack(design, specs, fit.conditioning)


def _fit_stack(design: DesignMatrix, specs: list[ArxSpec], cond: int) -> list[ArxFit]:
    """Fit every spec on the rows after the first `cond` as one stacked Newton iteration.

    Each member's parameters sit in one padded layout (beta_1..beta_K,
    phi_1..phi_P): its own columns and lags first, zeros in the slots it
    lacks. Its Jacobian J gets one extra row per absent slot, that slot's
    unit vector, with a 0 residual, so the R factor of [J; D | e; 0] holds
    the member's own R and Q'e, with an identity on the absent block: steps
    and gradients are exactly zero there. Each member keeps its own step
    halving, iteration count and stopping test, and leaves the stack when it
    stops. No specs give no fits.

    Every vector the iteration builds over the n_e weeks after `cond` (the filtered X, the lagged
    errors, e) is a combination of the lag pool's columns, lags 0..P of y and of each distinct column,
    and so are its inner products, R factors and steps. The pool is factored once and the iteration
    runs on its R factor's columns, of min(n_e, (P+1)(1+c)) entries for c columns; the weekly residuals
    are computed once, at the end. Results equal the weekly computation up to rounding, not bit for bit.
    """
    if not specs:
        return []
    y = design.outcome
    n = len(y)
    m = len(specs)
    big_k = max(len(spec.exogenous_columns) for spec in specs)
    big_p = max(spec.order for spec in specs)
    q = big_k + big_p
    ne = n - cond
    # Matrices are held transposed, a row per column, so that every column is contiguous. z holds y, then
    # the distinct columns, each scaled by a power of two, which is exact, to below 1, so that R'R cannot
    # overflow, then the zeros of an absent slot.
    columns = list(dict.fromkeys(name for spec in specs for name in spec.exogenous_columns))
    z = np.vstack([y, design.columns(columns).T, np.zeros(n)])
    scale = np.frexp(np.abs(z[1:]).max(axis=-1))[1]  # of z[1:], so a row of z has scale[row - 1]
    z[1:] = np.ldexp(z[1:], -scale[:, None])
    slot = np.full((m, big_k), len(z) - 1)  # each member's row of z in each slot
    active = np.zeros((m, q), dtype=bool)
    for i, spec in enumerate(specs):
        p, k = spec.order, len(spec.exogenous_columns)
        if cond < p:
            raise FitError(f"conditioning window {cond} is smaller than the order {p}")
        slot[i, :k] = [columns.index(name) + 1 for name in spec.exogenous_columns]
        if n <= 2 * (p + k):
            raise FitError(f"{spec.label} needs n > 2(p + k) observations: n={n}, p={p}, k={k}")
        active[i, :k] = True
        active[i, big_k : big_k + p] = True
    pad = np.eye(q) * ~active[:, None, :]  # D: a unit row per absent slot
    shift = np.concatenate([scale[slot - 1], np.zeros((m, big_p), dtype=int)], axis=1)  # 0 on the lag slots

    # the plain-OLS start, from the R factor of [X; D | y; 0]
    stacked = np.zeros((m, big_k + 1, n + big_k))
    stacked[:, :big_k, :n] = z[slot]
    stacked[:, :big_k, n:] = pad[:, :big_k, :big_k]
    stacked[:, big_k, :n] = y
    r = r_factor(stacked.mT)
    check_rank(r[:, :big_k, :big_k], [spec.exogenous_columns for spec in specs])
    theta = np.zeros((m, q))
    theta[:, :big_k] = np.linalg.solve(r[:, :big_k, :big_k], r[:, :big_k, big_k:])[..., 0]

    lagged = _lagged(z, big_p, cond)
    pool = r_factor(lagged[:-1].reshape(-1, ne).T)  # the lag pool's R: its columns stand for the weeks
    compressed = np.zeros((len(z), big_p + 1, len(pool)))
    compressed[:-1] = pool.T.reshape(len(z) - 1, big_p + 1, -1)
    y_lags, x_lags, nr = compressed[0], compressed[slot], len(pool)

    def residuals(theta, y_lags, x_lags):
        """Lagged regression errors u_{t-j} (j = 0..P) and one-step residuals e_t of each row."""
        xb = theta[:, None, :big_k] @ x_lags.reshape(len(theta), big_k, -1)
        u = y_lags - xb.reshape(len(theta), big_p + 1, -1)
        return u, u[:, 0] - np.einsum("ij,ijt->it", theta[:, big_k:], u[:, 1:])

    # Newton steps from the OLS point, or the Gauss-Newton step where the exact
    # RSS Hessian J'J + C is not positive definite. A step is halved while it
    # raises the RSS by more than the rounding of a sum of n_e squares, so that
    # steps too small for the RSS to register are still taken whole.
    stacked = np.zeros((m, q + 1, nr + q))  # [-J; D | e; 0]'; each iteration rewrites the first nr entries
    stacked[:, :q, nr:] = pad
    lag_on = active[:, big_k:].astype(float)
    u, e = residuals(theta, y_lags, x_lags)
    rss = np.einsum("ij,ij->i", e, e)
    check_rss(float(rss.max()), design, [name for spec in specs for name in spec.exogenous_columns])
    exact = exact_fit_bound(y, ne)
    rounding = 1.0 + ne * EPS
    iterations = np.zeros(m, dtype=int)
    stuck = np.zeros(m, dtype=bool)  # no halving of the last step lowered the RSS
    rows = np.arange(m)  # the member in each row of the stack
    final: list = [None] * m  # each member's state when it stopped
    while True:
        if rss.min() <= exact:  # an exact fit, unless its squares underflowed
            check_exact(e[rss.argmin()], y, ne)
            raise FitError("the model fits the data exactly; the likelihood is unbounded")
        top = stacked[..., :nr]
        ar_x = np.einsum("ij,ikjt->ikt", theta[:, big_k:], x_lags[:, :, 1:])
        np.subtract(x_lags[:, :, 0], ar_x, out=top[:, :big_k])
        np.multiply(u[:, 1:], lag_on[..., None], out=top[:, big_k:q])
        top[:, q] = e
        r = r_factor(stacked.mT)
        r_j, qte = r[:, :q, :q], r[:, :q, q]
        offset = np.sqrt(np.einsum("ij,ij->i", qte, qte) / rss)  # |J d| / |e| for the Gauss-Newton d
        gram = r.mT @ r  # [J'J, -J'e; -e'J, e'e]
        hessian, minus_g = gram[:, :q, :q], gram[:, :q, q]  # half the RSS Hessian J'J + C, and -J'e
        # C: d2e_t / dbeta dphi_j = +x_{t-j}
        hessian[:, :big_k, big_k:] += (x_lags[:, :, 1:] @ e[:, None, :, None])[..., 0] * lag_on[:, None]
        hessian[:, big_k:, :big_k] = hessian[:, :big_k, big_k:].mT

        stop = stuck | (offset <= STOP_TOLERANCE) | (iterations == MAX_ITERATIONS)
        if stop.any():
            for s in np.flatnonzero(stop):
                final[rows[s]] = (theta[s], iterations[s], offset[s], stuck[s], hessian[s], minus_g[s])
            if stop.all():
                break
            go = ~stop
            rows, theta, u, e, rss, iterations, x_lags, lag_on, stacked, r_j, qte, hessian, minus_g = (
                a[go] for a in (rows, theta, u, e, rss, iterations, x_lags, lag_on, stacked,
                                r_j, qte, hessian, minus_g)
            )
        try:
            np.linalg.cholesky(hessian)  # raises unless every member's is positive definite
            step = np.linalg.solve(hessian, minus_g[..., None])[..., 0]
            singular = np.zeros(len(rows), dtype=bool)
        except np.linalg.LinAlgError:  # each member's own step
            steps = [_step(*member) for member in zip(hessian, minus_g, r_j, qte)]
            singular = np.array([s is None for s in steps])  # no step: the member stops as "no_descent"
            step = np.array([np.zeros(q) if s is None else s for s in steps])

        for _ in range(MAX_HALVINGS):
            trial = theta + step
            u_new, e_new = residuals(trial, y_lags, x_lags)
            rss_new = np.einsum("ij,ij->i", e_new, e_new)
            lower = rss_new <= rss * rounding
            if lower.all():
                break
            step[~lower] *= 0.5
        stuck = ~lower | singular
        if stuck.any():  # keep the last point
            trial[stuck], u_new[stuck] = theta[stuck], u[stuck]
            e_new[stuck], rss_new[stuck] = e[stuck], rss[stuck]
        theta, u, e, rss = trial, u_new, e_new, rss_new
        iterations += ~stuck

    theta, iterations, offset, stuck, rss_hessian, minus_g = map(np.array, zip(*final))
    e = residuals(theta, lagged[0], lagged[slot])[1]  # over the weeks, once
    rss = np.einsum("ij,ij->i", e, e)
    stop_reasons = np.where(stuck, "no_descent",
                            np.where(offset <= STOP_TOLERANCE, "offset", "max_iterations")).tolist()
    # sigma2 times the exact Hessian of the profiled negative log-likelihood is J'J + C - 2 w w' for
    # w = J'e / sqrt(rss) (identity on the absent block); with U its Cholesky factor, a fit's covariance
    # factor is F = sigma U^-1, rows scaled back to the columns' scales, on first read. Neither sigma2
    # nor J'e is squared to overflow or underflow.
    w = minus_g / np.sqrt(rss)[:, None]
    information = rss_hessian - 2.0 * w[:, :, None] * w[:, None, :]
    with np.errstate(over="ignore"):  # a coefficient that overflowed is refused below
        theta_rows, rss_list = np.ldexp(theta, -shift).tolist(), rss.tolist()
    for spec, row in zip(specs, theta_rows):
        check_coefficients(spec.exogenous_columns, row)
    stationary = _stationary(theta[:, big_k:]).tolist()
    fitted = y[cond:] - e
    fits = []
    for i, spec in enumerate(specs):
        p, names = spec.order, spec.exogenous_columns
        k = len(names)
        if not stationary[i]:
            warnings.warn(
                f"{spec.label} has an autoregressive root at or inside the unit circle; "
                "estimates may be unstable",
                stacklevel=3,
            )
        rss_i = rss_list[i]
        fits.append(
            ArxFit(
                order=p,
                exogenous_columns=names,
                phi=tuple(theta_rows[i][big_k : big_k + p]),
                coefficients=dict(zip(names, theta_rows[i][:k])),
                sigma2=rss_i / ne,
                deviance=ne * (math.log(2.0 * math.pi * rss_i / ne) + 1.0),
                residuals=e[i],
                fitted=fitted[i],
                converged=bool(offset[i] <= OFFSET_TOLERANCE),
                iterations=int(iterations[i]),
                stop_reason=stop_reasons[i],
                n=n,
                conditioning=cond,
                param_count=p + k + 1,
                stationary=stationary[i],
                _information=(information[i], shift[i], np.flatnonzero(active[i])),
            )
        )
    return fits


def _step(hessian: np.ndarray, minus_g: np.ndarray, r: np.ndarray, qte: np.ndarray):
    """One member's Newton step, else its Gauss-Newton step, else None where it has neither.

    Newton needs a Hessian with a Cholesky factor and a solution, Gauss-Newton an R
    that passes the rank test.
    """
    try:
        np.linalg.cholesky(hessian)
        return np.linalg.solve(hessian, minus_g)
    except np.linalg.LinAlgError:
        return None if dependent_columns(r).any() else np.linalg.solve(r, qte)


def _inverse_factor(a: np.ndarray) -> np.ndarray:
    """U^-1 for U the upper Cholesky factor of `a`; all NaN where it has none."""
    try:
        return np.linalg.inv(np.linalg.cholesky(a, upper=True))  # a triangular inverse
    except np.linalg.LinAlgError:
        return np.full_like(a, math.nan)


def _lagged(z: np.ndarray, p: int, cond: int) -> np.ndarray:
    """z_{t-j} for t = cond..n-1 and j = 0..p; time is the last axis and j the one before it."""
    n = z.shape[-1]
    return np.stack([z[..., cond - j : n - j] for j in range(p + 1)], axis=-2)


def _stationary(phi: np.ndarray) -> np.ndarray:
    """Per row of `phi`: do the roots of 1 - phi_1 z - ... - phi_p z^p lie outside the unit circle?

    They do when the eigenvalues of the companion matrix, the roots'
    reciprocals, lie inside it.
    """
    m, p = phi.shape
    companion = np.zeros((m, p, p))
    companion[:, :1] = phi[:, None]
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    return np.all(np.abs(np.linalg.eigvals(companion)) < 1.0 / (1.0 + 1e-8), axis=1)


def predict_arx(fit: ArxFit) -> np.ndarray:
    """The fit's one-step-ahead in-sample predictions over all n weeks.

    The first `conditioning` weeks have no lagged errors: they are NaN, not extrapolated.
    """
    return np.concatenate([np.full(fit.conditioning, np.nan), fit.fitted])


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
    The whole grid is fitted as one stack, each candidate to the result
    `fit_arx` gives it alone up to rounding, and scored in one Ljung-Box
    pass, each to the p-value `ljung_box` gives it alone. The winner is
    refit on its own natural window before being returned.
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
    if n_common <= 2 * WHITENESS_LAGS:
        raise FitError(f"{design.n} weeks with maximum order {max_order} leave {n_common} weeks of "
                       f"residuals; the {WHITENESS_LAGS}-lag whiteness check needs more than "
                       f"{2 * WHITENESS_LAGS}")
    specs = [ArxSpec(order, tuple(columns))
             for columns in candidate_exogenous for order in range(max_order + 1)]
    fits = _fit_stack(design, specs, max_order)
    residuals = np.reshape([fit.residuals for fit in fits if fit.order < WHITENESS_LAGS], (-1, n_common))
    q = iter(ljung_box_statistic(residuals, WHITENESS_LAGS).tolist())  # one per order below the lags
    trace: list[CandidateRecord] = []
    for fit in fits:
        bic = fit.deviance + fit.param_count * math.log(n_common)
        whiteness_p = math.nan
        if WHITENESS_LAGS > fit.order:
            whiteness_p = chi_square_sf(next(q), WHITENESS_LAGS - fit.order)
        admissible = fit.converged and whiteness_p > WHITENESS_ALPHA
        trace.append(CandidateRecord(fit, bic, whiteness_p, admissible))

    ranked = tuple(sorted(trace, key=lambda rec: rec.bic))
    winner = next((rec for rec in ranked if rec.admissible), None)
    if winner is None:
        return SelectionResult(best=None, trace=ranked)
    best = fit_arx(design, ArxSpec(winner.fit.order, winner.fit.exogenous_columns))  # natural window
    return SelectionResult(best=best, trace=ranked)


def likelihood_ratio_test(baseline: ArxFit, full: ArxFit) -> LrtResult:
    """Deviance-difference test of nested ARX fits against chi-square at level LRT_ALPHA."""
    for role, fit in (("baseline", baseline), ("full", full)):
        if not fit.converged:
            raise FitError(f"{role} fit did not converge (relative Gauss-Newton offset above "
                           f"{OFFSET_TOLERANCE:g}); its deviance would be unreliable")
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
    critical = chi_square_quantile(1.0 - LRT_ALPHA, df) if df > 0 else 0.0
    return LrtResult(
        lambda_=lam,
        df=df,
        critical_value=critical,
        p_value=chi_square_sf(max(lam, 0.0), df) if df > 0 else 1.0,
        significant=df > 0 and lam > critical,
    )
