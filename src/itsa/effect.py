"""Intervention impact: counterfactuals, effect sizes, confidence intervals.

The counterfactual series is the model's projection with the
intervention columns zeroed everywhere; the effect at a week is the
difference between the fitted and counterfactual values, reported in
absolute terms and as a percentage of the counterfactual. Confidence
intervals on the percentage come from a first-order delta method: the
se of a gradient h is |h F|, with F F' the fit's coefficient covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .distributions import normal_quantile
from .errors import DesignError, FitError
from .ols import OlsFit, linear_predictor

# rolling window (weeks) and spread (percentage points) for "sustained"
STABILIZATION_WINDOW = 8
STABILIZATION_SPREAD = 5.0


@dataclass(frozen=True)
class EffectEstimate:
    """Fitted-vs-counterfactual comparison at one week."""

    week: int
    observed: float
    fitted: float
    counterfactual: float
    absolute_change: float
    relative_change: float  # percent; NaN when the counterfactual is <= 0
    ci_level: float
    ci_lower: float  # NaN where the relative change is
    ci_upper: float
    method: str


@dataclass(frozen=True)
class EffectSeries:
    """Per-week post-intervention effects plus summary measures."""

    estimates: tuple[EffectEstimate, ...]
    mean_relative_change: float  # NaN when no post week has a relative change
    stabilization_week: int | None  # first week from which the rolling mean stays put
    weeks_to_stabilization: int | None


def _model_matrices(fit, design: DesignMatrix, rows=slice(None)):
    """Coefficients, their rows of F, method tag, the model matrix's `rows`, and its intervention-column mask.

    An effect is what the fit's intervention terms add, so a fit with none is refused.
    """
    names = tuple(fit.coefficients)  # OLS and ARX fits alike: the factor has these rows first
    intervention_columns = design.intervention_columns
    intervention = np.array([name in intervention_columns for name in names])
    if not intervention.any():
        raise DesignError(f"an effect needs a fit with an intervention term, but none of its "
                          f"coefficients {list(names)} is an intervention column of the design")
    method = "ols" if isinstance(fit, OlsFit) else "arx"
    model = design.matrix[rows][:, [design.column_index(name) for name in names]]  # rows first: copy only those
    return fit.beta, fit.covariance_factor[: len(names)], method, model, intervention


def counterfactual_series(fit, design: DesignMatrix) -> np.ndarray:
    """Linear predictions with the intervention columns zeroed everywhere."""
    beta, _, _, model, intervention = _model_matrices(fit, design)
    return linear_predictor(np.where(intervention, 0.0, model), beta)


def _estimates(fit, design: DesignMatrix, rows, ci_level: float) -> tuple[EffectEstimate, ...]:
    """Effect estimates at the given row indices of the design, computed together.

    Every quantity is a column over the rows, and every product with beta a
    `linear_predictor` row sum, so no row depends on the others requested.
    Pre-intervention rows are exactly zero; NaN marks an undefined relative change and CI.
    """
    if not 0.0 < ci_level < 1.0:
        raise FitError(f"ci_level must lie in (0, 1), got {ci_level}")
    beta, factor, method, model_rows, intervention = _model_matrices(fit, design, rows)
    cf_rows = np.where(intervention, 0.0, model_rows)  # intervention columns zeroed
    intervention_part = np.where(intervention, model_rows, 0.0)

    fitted = linear_predictor(model_rows, beta)
    cf = linear_predictor(cf_rows, beta)
    pre = ~np.any(intervention_part, axis=1)  # pre-intervention: zero effect by construction
    defined = ~pre & (cf > 0)  # relative change needs a positive counterfactual
    absolute = np.where(pre, 0.0, linear_predictor(intervention_part, beta))

    # delta method: d/dbeta of 100 (a'b) / (c'b) is 100 h / (c'b) with h = a - (a'b) / (c'b) c, whose
    # se 100 |h F| / (c'b) no column's scale or tiny c'b can underflow or overflow; h F is summed
    # elementwise, as BLAS's h @ F rounds a row by the others; 1.0 stands in for an undefined c'b
    c = np.where(defined, cf, 1.0)
    h = intervention_part - (absolute / c)[:, None] * cf_rows
    se = 100.0 * np.hypot.reduce(np.sum(h[:, :, None] * factor, axis=1), axis=1) / c
    relative = np.where(pre | defined, 100.0 * absolute / c, np.nan)  # pre rows: 0.0 / 1.0
    half_width = np.where(defined, normal_quantile(0.5 + ci_level / 2.0) * se, 0.0)
    tags = np.where(pre, method,
                    np.where(defined, method + ":delta", method + ":relative-undefined"))

    return tuple(
        EffectEstimate(week, obs, fit_value, cf_value, change, rel, ci_level, lower, upper, tag)
        for week, obs, fit_value, cf_value, change, rel, lower, upper, tag in zip(
            design.weeks[rows].astype(int).tolist(), design.outcome[rows].tolist(),
            fitted.tolist(), cf.tolist(), absolute.tolist(), relative.tolist(),
            (relative - half_width).tolist(), (relative + half_width).tolist(), tags.tolist(),
        )
    )


def effect_at(fit, design: DesignMatrix, week: int, ci_level: float = 0.95) -> EffectEstimate:
    """Effect estimate at one week, with a delta-method CI on the percentage."""
    weeks = design.weeks
    if not float(week).is_integer():
        raise DesignError(f"week must be a whole number, got {week}")
    if not weeks[0] <= week <= weeks[-1]:
        raise DesignError(f"week {week} outside design range [{weeks[0]:g}, {weeks[-1]:g}]")
    return _estimates(fit, design, [int(week - weeks[0])], ci_level)[0]


def effect_series(fit, design: DesignMatrix, ci_level: float = 0.95) -> EffectSeries:
    """One effect estimate per post-intervention week, with summary measures.

    The summary reports the mean relative change over the post period
    and the first week from which the 8-week rolling mean of relative
    change stays within a 5-point band (the operational reading of a
    "sustained" effect). That band must hold for at least 8 rolling
    means, so a series with fewer than 15 post weeks never stabilizes.
    """
    post_rows = np.flatnonzero(design.weeks >= design.changepoint)
    estimates = _estimates(fit, design, post_rows, ci_level)
    relatives = [e.relative_change for e in estimates]
    defined = [r for r in relatives if not math.isnan(r)]
    mean_rel = sum(defined) / len(defined) if defined else math.nan

    stabilization_week = None
    if len(defined) == len(relatives) >= 2 * STABILIZATION_WINDOW - 1:
        window = np.ones(STABILIZATION_WINDOW) / STABILIZATION_WINDOW
        rolling = np.convolve(relatives, window, "valid")
        # max and min of every tail rolling[i:], as running extremes from the end
        tail_max = np.maximum.accumulate(rolling[::-1])[::-1]
        tail_min = np.minimum.accumulate(rolling[::-1])[::-1]
        # a settled tail holds at least STABILIZATION_WINDOW rolling means
        spread = (tail_max - tail_min)[: rolling.size - STABILIZATION_WINDOW + 1]
        settled = np.flatnonzero(spread < STABILIZATION_SPREAD)
        if settled.size:
            stabilization_week = estimates[settled[0]].week
    return EffectSeries(
        estimates=estimates,
        mean_relative_change=mean_rel,
        stabilization_week=stabilization_week,
        weeks_to_stabilization=(
            None if stabilization_week is None else stabilization_week - design.changepoint + 1
        ),
    )
