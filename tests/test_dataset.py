import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import itsa
from itsa._case_study import CASE_STUDY_ROWS
from itsa.dataset import TimeSeriesDataset, parse_csv, summarize
from itsa.errors import DataError

SMALL = "week,holds,occupancy\n1,10,50\n2,12,55\n3,9,60\n"


@st.composite
def datasets(draw, min_covariates=0):
    """Consecutive weeks from any integer start, finite values of any sign and size."""
    n = draw(st.integers(3, 20))
    k = draw(st.integers(min_covariates, 3))
    start = draw(st.integers(-(10**6), 10**6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, 1 + k), elements=finite))
    return TimeSeriesDataset(
        weeks=np.arange(start, start + n),
        values=values,
        outcome_name="y",
        covariate_names=tuple(f"c{i}" for i in range(k)),
    )


class TestParseCsv:
    def test_minimal_three_rows(self):
        ds = parse_csv(SMALL)
        assert len(ds) == 3
        assert ds.outcome_name == "holds"
        assert ds.covariate_names == ("occupancy",)
        assert ds.outcome.tolist() == [10.0, 12.0, 9.0]

    def test_gap_names_missing_week(self):
        with pytest.raises(DataError, match="week 3"):
            parse_csv("week,y\n1,1\n2,2\n4,4\n")

    def test_duplicate_week(self):
        with pytest.raises(DataError, match="duplicate week 2"):
            parse_csv("week,y\n1,1\n2,2\n2,3\n")

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty input"):
            parse_csv("")
        with pytest.raises(DataError, match="empty input"):
            parse_csv("week,y\n")

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(DataError, match=r"row 3.*'y'"):
            parse_csv("week,y\n1,1\n2,oops\n3,3\n")

    @pytest.mark.filterwarnings("ignore:ignoring derived design columns")
    @pytest.mark.parametrize("text", ["week\n1\n2\n3\n", "week,Level Change\n1,0\n2,0\n3,1\n"])
    def test_header_needs_an_outcome_column(self, text):
        with pytest.raises(DataError, match="header must name a week column and an outcome column"):
            parse_csv(text)

    def test_fractional_week_reports_row(self):
        with pytest.raises(DataError, match=r"^row 3: week index must be an integer, got '2\.5'$"):
            parse_csv("week,y\n1,1\n2.5,2\n3,3\n")

    def test_blank_cell_is_an_error(self):
        with pytest.raises(DataError, match="blank cell"):
            parse_csv("week,y\n1,1\n2,\n3,3\n")

    def test_locale_decimal_separator_rejected(self):
        with pytest.raises(DataError, match="non-numeric"):
            parse_csv('week,y\n1,"1,5"\n2,2\n3,3\n')

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            parse_csv("week,y\n1,inf\n2,2\n3,3\n")

    def test_derived_columns_ignored_with_warning(self):
        text = (
            "week,y,occupancy,Level Change,Trend Change,Baseline Trend\n"
            "1,5,50,0,0,1\n2,6,51,0,0,2\n3,7,52,1,1,3\n"
        )
        with pytest.warns(UserWarning, match="derived design columns"):
            ds = parse_csv(text)
        assert ds.covariate_names == ("occupancy",)

    def test_derived_columns_cross_checked_against_intervention_week(self):
        text = "week,y,Level Change\n1,5,0\n2,6,0\n3,7,1\n"
        with pytest.warns(UserWarning) as caught:
            parse_csv(text, intervention_week=3)
        assert not any("implies" in str(w.message) for w in caught[1:])
        with pytest.warns(UserWarning) as caught:
            parse_csv(text, intervention_week=2)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "ignoring derived design columns: Level Change" in messages[0]
        assert "implies" in messages[1]

    def test_round_trip(self):
        ds = parse_csv(SMALL)
        sink = io.StringIO()
        ds.to_csv(sink)
        again = parse_csv(sink.getvalue())
        assert again == ds

    @settings(deadline=None)
    @given(datasets())
    def test_round_trip_property(self, ds):
        sink = io.StringIO()
        ds.to_csv(sink)
        assert parse_csv(sink.getvalue()) == ds


class TestInvariants:
    def test_case_study_meets_its_plausibility_bounds(self):
        rows = np.array(CASE_STUDY_ROWS, dtype=float)
        weeks, holds, occupancy, discharges, admissions = rows.T
        assert np.all(weeks >= 1)
        assert np.all(holds >= 0)
        assert np.all((occupancy >= 0) & (occupancy <= 100))
        assert np.all(discharges >= 0) and np.all(admissions >= 0)

    def test_generic_series_not_held_to_case_study_bounds(self):
        ds = parse_csv("week,y,occupancy\n0,-2.5,120\n1,-1,50\n2,3,101.5\n")
        assert ds.weeks.tolist() == [0, 1, 2]
        assert ds.outcome.tolist() == [-2.5, -1.0, 3.0]
        assert ds.covariate("occupancy").tolist() == [120.0, 50.0, 101.5]

    @pytest.mark.parametrize("weeks", [[0.5, 1.5, 2.5], [1.0, 2.0, float("nan")]])
    def test_weeks_must_be_whole_numbers(self, weeks):
        with pytest.raises(DataError, match="whole numbers"):
            TimeSeriesDataset(
                weeks=weeks, values=np.zeros((3, 1)), outcome_name="y", covariate_names=()
            )

    @pytest.mark.parametrize("header, name", [("week,y,a,a", "a"), ("week,y,y", "y")])
    def test_repeated_column_name_rejected(self, header, name):
        rows = "".join(f"{week}" + ",1" * header.count(",") + "\n" for week in (1, 2, 3))
        with pytest.raises(DataError, match=f"column '{name}' appears more than once"):
            parse_csv(f"{header}\n{rows}")

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 3"):
            parse_csv("week,y\n1,1\n2,2\n")


class TestCaseStudy:
    def test_length(self, case_study):
        assert len(case_study) == 114

    def test_first_row(self, case_study):
        assert case_study.weeks[0] == 1
        assert case_study.outcome[0] == 16
        assert case_study.covariate("occupancy")[0] == 65.5
        assert case_study.covariate("discharges")[0] == 156
        assert case_study.covariate("admissions")[0] == 212

    def test_intervention_week_row(self, case_study):
        assert case_study.weeks[52] == 53
        assert case_study.outcome[52] == 18
        assert case_study.covariate("occupancy")[52] == 62.8
        assert case_study.covariate("discharges")[52] == 135
        assert case_study.covariate("admissions")[52] == 189

    def test_last_row(self, case_study):
        assert case_study.weeks[-1] == 114
        assert case_study.outcome[-1] == 23
        assert case_study.covariate("occupancy")[-1] == 85.4
        assert case_study.covariate("discharges")[-1] == 141
        assert case_study.covariate("admissions")[-1] == 170

    def test_round_trips_through_csv(self, case_study):
        sink = io.StringIO()
        case_study.to_csv(sink)
        text = sink.getvalue()
        assert text.splitlines()[0] == "week,or_holds,occupancy,discharges,admissions"
        assert parse_csv(text) == case_study


class TestSummarize:
    def test_case_study_overall_mean(self, case_study):
        s = summarize(case_study, 53)
        assert s.overall_mean == pytest.approx(23, abs=0.5)

    def test_case_study_pre_intervention_mean(self, case_study):
        s = summarize(case_study, 53)
        assert s.before_mean == pytest.approx(32, abs=1.0)
        assert s.n_before == 52
        assert s.n_after == 62

    def test_constant_series(self):
        ds = parse_csv("week,y,c\n1,7,1\n2,7,2\n3,7,3\n4,7,4\n")
        s = summarize(ds, 3)
        assert s.overall_mean == s.before_mean == s.after_mean == 7.0

    def test_overall_is_weighted_segment_average(self, case_study):
        s = summarize(case_study, 53)
        weighted = (s.before_mean * s.n_before + s.after_mean * s.n_after) / len(case_study)
        assert s.overall_mean == pytest.approx(weighted, abs=1e-9)

    def test_split_outside_range(self, case_study):
        with pytest.raises(DataError, match="outside"):
            summarize(case_study, 200)


def test_unknown_covariate_lookup(case_study):
    with pytest.raises(DataError, match="unknown covariate"):
        case_study.covariate("nope")


def test_load_case_study_is_fresh_each_call():
    a = itsa.load_case_study()
    b = itsa.load_case_study()
    assert a == b
    assert a is not b


@settings(deadline=None)
@given(datasets(min_covariates=1), st.data())
def test_reselecting_outcome_and_back_keeps_every_column(ds, data):
    name = data.draw(st.sampled_from(ds.covariate_names))
    swapped = ds.with_outcome(name)
    assert swapped.outcome_name == name
    assert np.array_equal(swapped.outcome, ds.covariate(name))
    back = swapped.with_outcome(ds.outcome_name)
    assert np.array_equal(back.outcome, ds.outcome)
    assert sorted(back.covariate_names) == sorted(ds.covariate_names)
    for c in ds.covariate_names:
        assert np.array_equal(back.covariate(c), ds.covariate(c))
    if name == ds.covariate_names[0]:  # the old outcome returns to the front
        assert back == ds


def test_columns_are_read_only_views(case_study):
    assert case_study.outcome.base is case_study.values
    with pytest.raises(ValueError):
        case_study.outcome[0] = 0.0
    with pytest.raises(ValueError):
        case_study.weeks[0] = 0
