"""Equally spaced longitudinal datasets: parsing, validation, summaries.

The central type is :class:`TimeSeriesDataset`, read-only NumPy columns
of the week index, the outcome and named covariates. Input series must
be complete (no gaps, no blanks) and spaced exactly one week apart.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _case_study
from .errors import DataError

# Precomputed design columns sometimes present in analysis-ready exports,
# each with its values given the weeks and the intervention week. They are
# derivable, so the parser drops them rather than treating them as covariates.
DERIVED_COLUMNS = {
    "level change": lambda weeks, start: (weeks >= start).astype(float),
    "trend change": lambda weeks, start: np.maximum(weeks - start + 1, 0.0),
    "baseline trend": lambda weeks, start: weeks,
}


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
        if not np.isfinite(values).all():
            row, column = np.argwhere(~np.isfinite(values))[0]
            raise DataError(f"column {names[column]!r} holds a non-finite value at week {weeks[row]:g}")
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
        # a whole number below 1e15 prints as an int, any other value as its repr
        values = self.values
        cells = values.astype(object)
        whole = (values == np.trunc(values)) & (np.abs(values) < 1e15)
        cells[whole] = values[whole].astype(np.int64)
        writer.writerows(zip(self.weeks.tolist(), *cells.T.tolist()))


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
    """Parse a CSV stream (or a string, read as a file opened as text) into a validated dataset.

    The first column is the week index and the second the outcome;
    remaining columns are covariates, in file order. Every cell must be a
    finite number. A `DataError` names the first bad row in file order and
    the first bad cell in that row, or the line of a fault in the CSV itself.
    Precomputed design columns (level change / trend change / baseline
    trend) are dropped with a warning, so both raw exports and
    analysis-ready files load. When `intervention_week` is given, each
    such column that disagrees with it gets one more warning.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)  # universal newlines, as a file opened as text
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        # each non-blank row by its row number
        rows = {row_no: row for row_no, row in enumerate(reader, start=2) if "".join(row).strip()}
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError("empty input: no header row")

    derived = [i for i in range(1, len(header)) if _canonical(header[i]) in DERIVED_COLUMNS]
    keep = [i for i in range(1, len(header)) if i not in derived]
    if derived:
        warnings.warn("ignoring derived design columns: " + ", ".join(header[i] for i in derived),
                      stacklevel=2)
    if not keep:
        raise DataError("header must name a week column and an outcome column")
    if not rows:
        raise DataError("empty input: no data rows")

    columns = [0, *keep, *derived]
    table = None
    if set(map(len, rows.values())) == {len(header)}:
        cells = map(float, itertools.chain.from_iterable(rows.values()))
        with contextlib.suppress(ValueError):  # float() refused a cell
            table = np.fromiter(cells, float, len(rows) * len(header)).reshape(len(rows), -1)
    if table is None or not np.isfinite(table).all() or np.any(table[:, 0] != np.trunc(table[:, 0])):
        # for the message: the first bad row in file order, and its first bad cell
        for row_no, row in rows.items():
            if len(row) != len(header):
                raise DataError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
            week, *_ = [_parse_cell(row[i], row_no, header[i]) for i in columns]
            if week != int(week):
                raise DataError(f"row {row_no}: week index must be an integer, got {row[0]!r}")
    table = table[:, columns]
    weeks = table[:, 0]
    if intervention_week is not None:
        for idx, given in zip(derived, table[:, 1 + len(keep):].T):
            expected = DERIVED_COLUMNS[_canonical(header[idx])](weeks, intervention_week)
            disagree = np.flatnonzero(given != expected)
            if disagree.size:
                i = disagree[0]
                warnings.warn(
                    f"row {list(rows)[i]}: column {header[idx]!r} is {given[i]:g} but "
                    f"intervention week {intervention_week} implies {expected[i]:g} "
                    f"({disagree.size} of {len(weeks)} rows disagree)",
                    stacklevel=2,
                )
    return TimeSeriesDataset(
        weeks=weeks,
        values=table[:, 1:1 + len(keep)],
        outcome_name=header[keep[0]].strip(),
        covariate_names=tuple(header[i].strip() for i in keep[1:]),
    )


@functools.cache
def load_case_study() -> TimeSeriesDataset:
    """The packaged 114-week OR-holds dataset, parsed once from its CSV text; every call shares it."""
    return parse_csv(_case_study.CSV)


def summarize(dataset: TimeSeriesDataset, split_week: int) -> SegmentSummary:
    """Outcome summary overall and split at `split_week` (before = weeks < split)."""
    weeks, outcome = dataset.weeks, dataset.outcome
    if not weeks[0] <= split_week <= weeks[-1]:
        raise DataError(f"split week {split_week} outside dataset range [{weeks[0]}, {weeks[-1]}]")
    before, after = outcome[weeks < split_week], outcome[weeks >= split_week]
    if not before.size or not after.size:
        raise DataError(f"split week {split_week} leaves an empty segment")
    stats = {}
    try:  # fsum rounds the sum once, so a mean does not depend on the summation order
        for segment, values in (("overall", outcome), ("before", before), ("after", after)):
            stats |= {f"{segment}_mean": math.fsum(values) / len(values),
                      f"{segment}_min": float(values.min()), f"{segment}_max": float(values.max())}
    except OverflowError:
        raise DataError(f"the outcome {dataset.outcome_name!r} is too large: its sum overflows") from None
    return SegmentSummary(split_week=split_week, **stats, n_before=len(before), n_after=len(after))
