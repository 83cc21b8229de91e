"""Segmented-regression design matrices.

Builds the regressor matrix for an interrupted time series: intercept,
time, a 0/1 intervention indicator, a post-intervention trend counter,
and any confounders, in a fixed column order so coefficient tables are
reproducible. The matrix is column-major and filled in place, one
contiguous column at a time. The time origin can be moved by an integer
(`recode_time`); the shift changes only the intercept's interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import DERIVED_COLUMNS, TimeSeriesDataset
from .errors import DesignError

INTERCEPT = "intercept"
TIME = "time"
INTERVENTION = "intervention"
TIME_AFTER = "time_after"


@dataclass(frozen=True)
class InterventionSpec:
    """Change-point definition: first affected week plus an optional lag."""

    changepoint_week: int
    lag_weeks: int = 0

    def __post_init__(self) -> None:
        if self.changepoint_week < 1:
            raise DesignError(f"changepoint week must be positive, got {self.changepoint_week}")
        if self.lag_weeks < 0:
            raise DesignError(f"lag must be non-negative, got {self.lag_weeks}")

    @property
    def effective_week(self) -> int:
        return self.changepoint_week + self.lag_weeks


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor matrix plus the outcome it models."""

    matrix: np.ndarray
    column_names: tuple[str, ...]
    outcome: np.ndarray
    weeks: np.ndarray
    changepoint: int

    def __post_init__(self) -> None:
        n, k = self.matrix.shape
        if len(self.column_names) != k:
            raise DesignError(f"{k} columns but {len(self.column_names)} names")
        if len(self.outcome) != n or len(self.weeks) != n:
            raise DesignError("outcome/week length does not match the matrix")
        if INTERCEPT in self.column_names:
            ones = self.column(INTERCEPT)
            if not (ones == 1.0).all():
                raise DesignError("intercept column must be all ones")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def intervention_columns(self) -> tuple[str, ...]:
        """The intervention indicator and post-intervention counter, those the design has."""
        return tuple(name for name in (INTERVENTION, TIME_AFTER) if name in self.column_names)

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.column_index(name)]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DesignError(f"no column named {name!r}") from None

    def columns(self, names: tuple[str, ...] | list[str]) -> np.ndarray:
        """New column-major matrix of the named columns, in the given order."""
        return self.matrix.T.take([self.column_index(name) for name in names], axis=0).T

    def subset(self, names: tuple[str, ...] | list[str]) -> "DesignMatrix":
        """New design keeping only the named columns, in the given order; its matrix is read-only."""
        matrix = self.columns(names)
        matrix.flags.writeable = False
        return replace(self, matrix=matrix, column_names=tuple(names))


def build_design(
    dataset: TimeSeriesDataset,
    spec: InterventionSpec,
    confounders: list[str] | tuple[str, ...] = (),
) -> DesignMatrix:
    """Construct the segmented-regression design for one change point.

    Column order is fixed: intercept, time, intervention, time_after,
    then confounders in the order given. The time column is the raw
    week index (see `recode_time` for other origins); the
    post-intervention counter is 1 at the change-point week itself and
    increments weekly. The three segment columns are the
    `dataset.DERIVED_COLUMNS` codings, which `parse_csv` checks an
    analysis-ready file against. The matrix and weeks are read-only.
    """
    for i, name in enumerate(confounders):
        if name not in dataset.covariate_names:
            raise DesignError(
                f"unknown confounder {name!r}; dataset has {list(dataset.covariate_names)}"
            )
        if name in confounders[:i]:
            raise DesignError(f"confounder {name!r} is listed more than once")
    weeks = dataset.weeks.astype(float)
    changepoint = spec.effective_week
    if changepoint < weeks[0]:
        raise DesignError(
            f"effective changepoint {changepoint} is before the first week {dataset.weeks[0]}"
        )
    matrix = np.empty((len(weeks), 4 + len(confounders)), order="F")  # column-major, filled in place
    matrix[:, 0] = 1.0
    for j, name in enumerate(("baseline trend", "level change", "trend change", *confounders), 1):
        matrix[:, j] = DERIVED_COLUMNS[name](weeks, changepoint) if j < 4 else dataset.covariate(name)
    matrix.flags.writeable = weeks.flags.writeable = False  # so a fit's residuals, read later, hold
    return DesignMatrix(
        matrix=matrix,
        column_names=(INTERCEPT, TIME, INTERVENTION, TIME_AFTER, *confounders),
        outcome=dataset.outcome,
        weeks=weeks,
        changepoint=changepoint,
    )


def recode_time(design: DesignMatrix, origin: int) -> DesignMatrix:
    """Re-express the time column as `weeks - origin`.

    Origin 0 keeps the raw week index; `design.changepoint - 1` codes
    the changepoint week as time 1 (time at the intervention). Only the
    time column changes; the indicator, post-intervention counter,
    confounders, and outcome are untouched, so fitted values and all
    non-intercept coefficients are invariant.
    """
    out = design.matrix.copy(order="F")
    out[:, design.column_index(TIME)] = design.weeks - origin
    out.flags.writeable = False
    return replace(design, matrix=out)
