"""Equally spaced longitudinal datasets: parsing, validation, summaries.

The central type is :class:`TimeSeriesDataset`, read-only NumPy columns
of the week index, the outcome and named covariates. Input series must
be complete (no gaps, no blanks) and spaced exactly one week apart.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _case_study
from .errors import DataError

# Precomputed design columns sometimes present in analysis-ready exports.
# They are derivable from the week index and intervention week, so the
# parser drops them rather than treating them as covariates.
DERIVED_COLUMN_NAMES = frozenset({"level change", "trend change", "baseline trend"})


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", " ")


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Consecutive weekly observations held as read-only NumPy columns.

    `values` has one row per week: the outcome first, then the covariates
    in `covariate_names` order. It is copied on construction into
    column-major order, so each column is a contiguous view. Two datasets
    are equal when their names and values are.
    """

    weeks: np.ndarray
    values: np.ndarray
    outcome_name: str
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        weeks = np.array(self.weeks)
        values = np.array(self.values, dtype=float, order="F")
        if weeks.ndim != 1 or values.shape != (len(weeks), 1 + len(self.covariate_names)):
            raise DataError(f"values shape {values.shape} does not fit weeks shape {weeks.shape}")
        names = (self.outcome_name, *self.covariate_names)
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"column {name!r} appears more than once")
        if not np.all(np.isfinite(weeks) & (weeks == np.round(weeks))):
            raise DataError("weeks must be whole numbers")
        if len(weeks) < 3:
            raise DataError(f"dataset needs at least 3 records, got {len(weeks)}")
        out_of_sequence = np.flatnonzero(np.diff(weeks) != 1)
        if out_of_sequence.size:
            i = out_of_sequence[0]
            if weeks[0] <= weeks[i + 1] <= weeks[i]:
                raise DataError(f"duplicate week {int(weeks[i + 1])}")
            raise DataError(f"gap in week sequence: week {int(weeks[i]) + 1} is missing")
        weeks = weeks.astype(np.int64, copy=False)
        weeks.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "weeks", weeks)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesDataset):
            return NotImplemented
        return (
            self.outcome_name == other.outcome_name
            and self.covariate_names == other.covariate_names
            and np.array_equal(self.weeks, other.weeks)
            and np.array_equal(self.values, other.values)
        )

    def __len__(self) -> int:
        return len(self.weeks)

    @property
    def outcome(self) -> np.ndarray:
        return self.values[:, 0]

    def covariate(self, name: str) -> np.ndarray:
        if name not in self.covariate_names:
            raise DataError(f"unknown covariate {name!r}; have {list(self.covariate_names)}")
        return self.values[:, 1 + self.covariate_names.index(name)]

    def with_outcome(self, name: str) -> TimeSeriesDataset:
        """Copy with column `name` as the outcome and the old outcome as the first covariate."""
        names = (self.outcome_name, *self.covariate_names)
        if name not in names:
            raise DataError(f"outcome column {name!r} not found; have {list(names)}")
        order = [names.index(name)] + [i for i, c in enumerate(names) if c != name]
        return TimeSeriesDataset(
            weeks=self.weeks,
            values=self.values[:, order],
            outcome_name=name,
            covariate_names=tuple(names[i] for i in order[1:]),
        )

    def to_csv(self, sink) -> None:
        """Write the dataset as CSV (header row, week index first)."""
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["week", self.outcome_name, *self.covariate_names])
        for week, row in zip(self.weeks.tolist(), self.values.tolist()):
            writer.writerow([week, *map(_format_number, row)])


@dataclass(frozen=True)
class SegmentSummary:
    """Outcome mean/min/max overall and on either side of a split week."""

    split_week: int
    overall_mean: float
    overall_min: float
    overall_max: float
    before_mean: float
    before_min: float
    before_max: float
    after_mean: float
    after_min: float
    after_max: float
    n_before: int
    n_after: int


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _parse_cell(text: str, row: int, column: str) -> float:
    stripped = text.strip()
    if not stripped:
        raise DataError(f"row {row}, column {column!r}: blank cell")
    try:
        value = float(stripped)
    except ValueError:
        raise DataError(f"row {row}, column {column!r}: non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {column!r}: non-finite value {text!r}")
    return value


def parse_csv(source, intervention_week: int | None = None) -> TimeSeriesDataset:
    """Parse a CSV stream (or string) into a validated dataset.

    The first column is the week index and the second the outcome;
    remaining columns are covariates, in file order. Precomputed design
    columns (level change / trend change / baseline trend) are ignored
    with a warning so both raw exports and analysis-ready files load.
    When `intervention_week` is given, any precomputed columns are
    cross-checked against the values implied by that week; a mismatch
    is reported as a warning, not an error.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    if len(header) < 2:
        raise DataError("header must name a week column and an outcome column")

    keep: list[int] = []
    derived: dict[str, int] = {}
    for idx, name in enumerate(header[1:], start=1):
        canon = _canonical(name)
        if canon in DERIVED_COLUMN_NAMES:
            derived[canon] = idx
        else:
            keep.append(idx)
    if derived:
        warnings.warn(
            "ignoring derived design columns: "
            + ", ".join(header[i] for i in derived.values()),
            stacklevel=2,
        )
    if not keep:
        raise DataError("no outcome column remains after dropping derived columns")

    weeks: list[float] = []
    rows: list[list[float]] = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DataError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
        week = _parse_cell(row[0], row_no, header[0])
        if week != int(week):
            raise DataError(f"row {row_no}: week index must be an integer, got {row[0]!r}")
        weeks.append(week)
        rows.append([_parse_cell(row[i], row_no, header[i]) for i in keep])
        if intervention_week is not None and derived:
            _check_derived_cells(row, row_no, header, derived, week, intervention_week)

    if not rows:
        raise DataError("empty input: no data rows")
    return TimeSeriesDataset(
        weeks=np.array(weeks),
        values=np.array(rows),
        outcome_name=header[keep[0]].strip(),
        covariate_names=tuple(header[i].strip() for i in keep[1:]),
    )


def _check_derived_cells(row, row_no, header, derived, week, intervention_week) -> None:
    post = week >= intervention_week
    expected = {
        "level change": 1.0 if post else 0.0,
        "trend change": float(week - intervention_week + 1) if post else 0.0,
        "baseline trend": float(week),
    }
    for canon, idx in derived.items():
        value = _parse_cell(row[idx], row_no, header[idx])
        if value != expected[canon]:
            warnings.warn(
                f"row {row_no}: column {header[idx]!r} is {value:g} but "
                f"intervention week {intervention_week} implies {expected[canon]:g}",
                stacklevel=3,
            )


def load_case_study() -> TimeSeriesDataset:
    """Return the packaged 114-week OR-holds dataset."""
    rows = np.array(_case_study.CASE_STUDY_ROWS, dtype=float)
    return TimeSeriesDataset(
        weeks=rows[:, 0],
        values=rows[:, 1:],
        outcome_name=_case_study.OUTCOME_NAME,
        covariate_names=_case_study.COVARIATE_NAMES,
    )


def summarize(dataset: TimeSeriesDataset, split_week: int) -> SegmentSummary:
    """Outcome summary overall and split at `split_week` (before = weeks < split)."""
    weeks, outcome = dataset.weeks, dataset.outcome
    if not weeks[0] <= split_week <= weeks[-1]:
        raise DataError(f"split week {split_week} outside dataset range [{weeks[0]}, {weeks[-1]}]")
    before = outcome[weeks < split_week]
    after = outcome[weeks >= split_week]
    if not before.size or not after.size:
        raise DataError(f"split week {split_week} leaves an empty segment")
    # fsum rounds the sum once, so a mean does not depend on the summation order
    return SegmentSummary(
        split_week=split_week,
        overall_mean=math.fsum(outcome) / len(outcome),
        overall_min=float(outcome.min()),
        overall_max=float(outcome.max()),
        before_mean=math.fsum(before) / len(before),
        before_min=float(before.min()),
        before_max=float(before.max()),
        after_mean=math.fsum(after) / len(after),
        after_min=float(after.min()),
        after_max=float(after.max()),
        n_before=len(before),
        n_after=len(after),
    )
