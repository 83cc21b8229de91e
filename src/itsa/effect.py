"""Intervention impact: counterfactuals, effect sizes, confidence intervals.

The counterfactual series is the model's projection with the
intervention columns zeroed everywhere; the effect at a week is the
difference between the fitted and counterfactual values, reported in
absolute terms and as a percentage of the counterfactual. Confidence
intervals on the percentage come from a first-order delta method over
the joint coefficient covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arx import ArxFit
from .design import DesignMatrix
from .distributions import normal_quantile
from .errors import DesignError, FitError
from .ols import OlsFit

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
    relative_change: float | None  # percent; None when the counterfactual is <= 0
    ci_level: float
    ci_lower: float | None
    ci_upper: float | None
    method: str

    def to_json_dict(self) -> dict:
        return {
            "week": self.week,
            "observed": self.observed,
            "fitted": self.fitted,
            "counterfactual": self.counterfactual,
            "absolute_change": self.absolute_change,
            "relative_change": self.relative_change,
            "ci_level": self.ci_level,
            "ci": [self.ci_lower, self.ci_upper],
            "method": self.method,
        }


@dataclass(frozen=True)
class EffectSeries:
    """Per-week post-intervention effects plus summary measures."""

    estimates: tuple[EffectEstimate, ...]
    mean_relative_change: float | None
    stabilization_week: int | None  # first week from which the rolling mean stays put
    weeks_to_stabilization: int | None

    def to_json_dict(self) -> dict:
        return {
            "estimates": [e.to_json_dict() for e in self.estimates],
            "mean_relative_change": self.mean_relative_change,
            "stabilization_week": self.stabilization_week,
            "weeks_to_stabilization": self.weeks_to_stabilization,
        }


def _model_matrices(fit, design: DesignMatrix):
    """Coefficients, covariance, method tag, and the model and counterfactual matrices."""
    if isinstance(fit, OlsFit):
        names = fit.column_names
        beta = fit.beta
        cov = fit.covariance
        method = "ols"
    elif isinstance(fit, ArxFit):
        names = fit.exogenous_columns
        beta = fit.beta_vector
        k = len(names)
        cov = fit.covariance[:k, :k]
        method = "arx"
    else:
        raise FitError(f"unsupported fit type {type(fit).__name__}")
    return beta, cov, method, design.columns(names), design.zero_intervention().columns(names)


def counterfactual_series(fit, design: DesignMatrix) -> np.ndarray:
    """Linear predictions with the intervention columns zeroed everywhere."""
    if not design.intervention_columns:
        raise DesignError("design does not declare its intervention columns")
    beta, _, _, _, counterfactual = _model_matrices(fit, design)
    return counterfactual @ beta


def _estimates(fit, design: DesignMatrix, rows, ci_level: float) -> tuple[EffectEstimate, ...]:
    """Effect estimates at the given row indices of the design, computed together.

    Every quantity is an elementwise product summed per row, with no
    matrix product, so a row's estimate does not depend on which other
    rows are requested alongside it.
    """
    if not 0.0 < ci_level < 1.0:
        raise FitError(f"ci_level must lie in (0, 1), got {ci_level}")
    beta, cov, method, model, counterfactual = _model_matrices(fit, design)
    rows = np.asarray(rows, dtype=int)
    model_rows = model[rows]
    cf_rows = counterfactual[rows]
    intervention_part = model_rows - cf_rows

    fitted = np.sum(model_rows * beta, axis=1)
    cf = np.sum(cf_rows * beta, axis=1)
    absolute = np.sum(intervention_part * beta, axis=1)
    pre = ~np.any(intervention_part, axis=1)  # pre-intervention: zero effect by construction
    defined = ~pre & (cf > 0)  # relative change needs a positive counterfactual

    # delta method: d/dbeta of 100 * (a'b) / (c'b); 1.0 stands in where it is undefined
    c = np.where(defined, cf, 1.0)[:, None]
    gradient = 100.0 * (intervention_part * c - absolute[:, None] * cf_rows) / c**2
    se = np.sqrt(np.sum(gradient[:, :, None] * cov * gradient[:, None, :], axis=(1, 2)))
    relative = 100.0 * absolute / c[:, 0]
    z = normal_quantile(0.5 + ci_level / 2.0)

    estimates = []
    for i, idx in enumerate(rows):
        common = dict(
            week=int(design.weeks[idx]),
            observed=float(design.outcome[idx]),
            fitted=float(fitted[i]),
            counterfactual=float(cf[i]),
            ci_level=ci_level,
        )
        if pre[i]:
            estimates.append(EffectEstimate(
                **common, absolute_change=0.0, relative_change=0.0,
                ci_lower=0.0, ci_upper=0.0, method=method,
            ))
        elif not defined[i]:
            estimates.append(EffectEstimate(
                **common, absolute_change=float(absolute[i]), relative_change=None,
                ci_lower=None, ci_upper=None, method=method + ":relative-undefined",
            ))
        else:
            estimates.append(EffectEstimate(
                **common, absolute_change=float(absolute[i]), relative_change=float(relative[i]),
                ci_lower=float(relative[i] - z * se[i]), ci_upper=float(relative[i] + z * se[i]),
                method=method + ":delta",
            ))
    return tuple(estimates)


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
    "sustained" effect).
    """
    post_rows = np.flatnonzero(design.weeks >= design.changepoint)
    if not len(post_rows):
        return EffectSeries(
            estimates=(),
            mean_relative_change=None,
            stabilization_week=None,
            weeks_to_stabilization=None,
        )
    estimates = _estimates(fit, design, post_rows, ci_level)
    relatives = [e.relative_change for e in estimates]
    defined = [r for r in relatives if r is not None]
    mean_rel = sum(defined) / len(defined) if defined else None

    stabilization_week = None
    if all(r is not None for r in relatives) and len(relatives) >= STABILIZATION_WINDOW:
        rel = np.array(relatives)
        rolling = np.convolve(rel, np.ones(STABILIZATION_WINDOW) / STABILIZATION_WINDOW, "valid")
        # max and min of every tail rolling[i:], as running extremes from the end
        tail_max = np.maximum.accumulate(rolling[::-1])[::-1]
        tail_min = np.minimum.accumulate(rolling[::-1])[::-1]
        settled = np.flatnonzero(tail_max - tail_min < STABILIZATION_SPREAD)
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
