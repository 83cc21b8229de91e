
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itsa
from itsa.dataset import TimeSeriesDataset
from itsa.design import (
    DesignMatrix,
    InterventionSpec,
    build_design,
    recode_time,
)
from itsa.errors import DesignError


@pytest.fixture(scope="module")
def start_coded(case_study_module):
    return build_design(case_study_module, InterventionSpec(53), ["occupancy"])


@pytest.fixture(scope="module")
def case_study_module():
    return itsa.load_case_study()


class TestBuildDesign:
    def test_changepoint_row(self, start_coded):
        i = 52  # week 53
        assert start_coded.column("intervention")[i] == 1.0
        assert start_coded.column("time_after")[i] == 1.0

    def test_week_before_changepoint(self, start_coded):
        i = 51  # week 52
        assert start_coded.column("intervention")[i] == 0.0
        assert start_coded.column("time_after")[i] == 0.0

    def test_last_week_counter(self, start_coded):
        assert start_coded.column("time_after")[-1] == 62.0

    def test_changepoint_past_series_gives_all_zero_indicator(self, case_study_module):
        d = build_design(case_study_module, InterventionSpec(115), [])
        assert not np.any(d.column("intervention"))
        assert not np.any(d.column("time_after"))

    def test_column_order_is_fixed(self, case_study_module):
        d = build_design(
            case_study_module, InterventionSpec(53), ["discharges", "occupancy"]
        )
        assert d.column_names == (
            "intercept", "time", "intervention", "time_after", "discharges", "occupancy",
        )

    def test_unknown_confounder(self, case_study_module):
        with pytest.raises(DesignError, match="unknown confounder"):
            build_design(case_study_module, InterventionSpec(53), ["nope"])

    def test_repeated_confounder(self, case_study_module):
        with pytest.raises(DesignError, match="confounder 'occupancy' is listed more than once"):
            build_design(case_study_module, InterventionSpec(53), ["occupancy", "occupancy"])

    def test_changepoint_before_first_week(self):
        late_start = itsa.parse_csv("week,y\n5,1\n6,2\n7,3\n")
        with pytest.raises(DesignError, match="before the first week"):
            build_design(late_start, InterventionSpec(2), [])
        with pytest.raises(DesignError):
            InterventionSpec(0)

    @settings(deadline=None)
    @given(
        start=st.integers(-50, 500),
        n=st.integers(3, 200),
        offset=st.integers(0, 250),
        lag=st.integers(0, 20),
    )
    def test_indicator_and_counter_invariants(self, start, n, offset, lag):
        weeks = np.arange(start, start + n)
        ds = TimeSeriesDataset(
            weeks=weeks,
            values=np.column_stack([weeks * 0.5, -weeks]),
            outcome_name="y",
            covariate_names=("c",),
        )
        spec = InterventionSpec(max(start, 1) + offset, lag)
        d = build_design(ds, spec, ["c"])
        time, indicator = d.column("time"), d.column("intervention")
        before = min(spec.effective_week - start, n)  # rows before the effective week
        assert np.array_equal(indicator, np.concatenate([np.zeros(before), np.ones(n - before)]))
        assert np.array_equal(d.column("time_after"), indicator * (time - spec.effective_week + 1))
        assert np.array_equal(d.column("c"), ds.covariate("c"))
        assert np.array_equal(d.outcome, ds.outcome)

    def test_lag_shifts_effective_changepoint(self, case_study_module):
        d = build_design(case_study_module, InterventionSpec(53, lag_weeks=1), [])
        assert d.changepoint == 54
        assert d.column("intervention")[52] == 0.0
        assert d.column("intervention")[53] == 1.0

    def test_counter_identity(self, start_coded):
        time = start_coded.column("time")
        indicator = start_coded.column("intervention")
        counter = start_coded.column("time_after")
        assert np.array_equal(counter, indicator * (time - start_coded.changepoint + 1))

    def test_matches_analysis_ready_coding(self, start_coded):
        # spot values from the published analysis-ready table
        expected = {52: (0.0, 0.0), 53: (1.0, 1.0), 54: (1.0, 2.0), 114: (1.0, 62.0)}
        for week, (level, trend) in expected.items():
            i = week - 1
            assert start_coded.column("intervention")[i] == level
            assert start_coded.column("time_after")[i] == trend


@pytest.fixture(scope="module")
def late_start():
    """Weeks 10-60 with the changepoint at week 30: the raw time column does not start at 1."""
    rng = np.random.default_rng(3010)
    weeks = np.arange(10, 61)
    x = rng.normal(size=len(weeks))
    y = 5.0 + 0.1 * weeks - 3.0 * (weeks >= 30) + 0.5 * x + rng.normal(0.0, 0.3, len(weeks))
    dataset = TimeSeriesDataset(weeks, np.column_stack([y, x]), "y", ("x",))
    return build_design(dataset, InterventionSpec(30), ["x"])


class TestRecodeTime:
    def test_identity_recode(self, start_coded):
        again = recode_time(start_coded, 0)
        assert np.array_equal(again.matrix, start_coded.matrix)

    def test_origin_at_intervention(self, start_coded):
        recoded = recode_time(start_coded, start_coded.changepoint - 1)
        assert recoded.column("time")[52] == 1.0  # week 53 becomes week 1
        assert np.array_equal(recoded.column("intervention"), start_coded.column("intervention"))
        assert np.array_equal(recoded.column("time_after"), start_coded.column("time_after"))
        assert np.array_equal(recoded.outcome, start_coded.outcome)

    def test_offset_coding(self, start_coded):
        recoded = recode_time(start_coded, 10)
        assert np.array_equal(recoded.column("time"), start_coded.column("time") - 10)

    def test_fits_agree_across_codings(self, start_coded):
        base = itsa.fit_ols(start_coded)
        shifted = itsa.fit_ols(recode_time(start_coded, start_coded.changepoint - 1))
        assert np.allclose(base.fitted, shifted.fitted, atol=1e-9)
        assert np.allclose(base.residuals, shifted.residuals, atol=1e-9)
        assert base.rss == pytest.approx(shifted.rss, abs=1e-9)
        for name in base.column_names:
            if name != "intercept":
                assert base.coefficients[name] == pytest.approx(
                    shifted.coefficients[name], abs=1e-9
                )

    def test_series_not_starting_at_week_one(self, late_start):
        assert late_start.column("time")[0] == 10.0
        assert np.array_equal(recode_time(late_start, 0).matrix, late_start.matrix)
        recoded = recode_time(late_start, late_start.changepoint - 1)
        assert recoded.column("time")[20] == 1.0  # week 30, the changepoint
        assert np.array_equal(recoded.column("time"), late_start.weeks - 29)
        base = itsa.fit_ols(late_start)
        assert np.allclose(itsa.fit_ols(recoded).fitted, base.fitted, rtol=0, atol=1e-9)


class TestDesignMatrixType:
    def test_intercept_must_be_ones(self, start_coded):
        bad = start_coded.matrix.copy()
        bad[0, 0] = 2.0
        with pytest.raises(DesignError, match="all ones"):
            DesignMatrix(
                matrix=bad,
                column_names=start_coded.column_names,
                outcome=start_coded.outcome,
                weeks=start_coded.weeks,
                changepoint=start_coded.changepoint,
            )

    def test_subset_keeps_order_and_annotations(self, start_coded):
        sub = start_coded.subset(["intercept", "intervention", "occupancy"])
        assert sub.column_names == ("intercept", "intervention", "occupancy")
        assert sub.intervention_columns == ("intervention",)

    def test_intervention_columns_are_read_from_names(self, start_coded):
        assert start_coded.intervention_columns == ("intervention", "time_after")
        assert start_coded.subset(["intercept", "time"]).intervention_columns == ()

    def test_missing_column(self, start_coded):
        with pytest.raises(DesignError, match="no column named"):
            start_coded.column("nope")
