import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

import itsa
from itsa.arx import ArxSpec, fit_arx
from itsa.design import DesignMatrix
from itsa.effect import (
    STABILIZATION_SPREAD,
    STABILIZATION_WINDOW,
    counterfactual_series,
    effect_at,
    effect_series,
)
from itsa.errors import DesignError, FitError
from itsa.ols import OlsFit, fit_ols, predict


def step_design(y, changepoint, extra=None, extra_names=()):
    """intercept + intervention indicator (+ optional extra columns)."""
    n = len(y)
    weeks = np.arange(1, n + 1, dtype=float)
    indicator = (weeks >= changepoint).astype(float)
    cols = [np.ones(n), indicator]
    names = ["intercept", "intervention", *extra_names]
    if extra is not None:
        cols.append(np.asarray(extra, dtype=float))
    return DesignMatrix(
        matrix=np.column_stack(cols),
        column_names=tuple(names),
        outcome=np.asarray(y, dtype=float),
        weeks=weeks,
        changepoint=changepoint,
    )


@pytest.fixture(scope="module")
def reduced_case_study():
    """Case-study design and fit: intercept, time, level change, occupancy."""
    data = itsa.load_case_study()
    design = itsa.build_design(data, itsa.InterventionSpec(53), []).subset(
        ["intercept", "time", "intervention"]
    )
    return design, fit_ols(design)


class TestCounterfactualSeries:
    def test_matches_fitted_before_changepoint(self, reduced_case_study):
        design, fit = reduced_case_study
        cf = counterfactual_series(fit, design)
        assert np.array_equal(cf[:52], fit.fitted[:52])
        assert not np.allclose(cf[52:], fit.fitted[52:])

    def test_zero_intervention_coefficient_means_no_effect(self, rng):
        y = 10.0 + rng.normal(size=60)
        design = step_design(y, changepoint=31)
        fit = fit_ols(design)
        nulled = fit_ols(
            DesignMatrix(
                matrix=design.matrix,
                column_names=design.column_names,
                outcome=design.matrix[:, 0] * 7.0,  # outcome ignores the indicator
                weeks=design.weeks,
                changepoint=design.changepoint,
            )
        )
        cf = counterfactual_series(nulled, design)
        assert np.allclose(cf, nulled.fitted, atol=1e-9)

    @pytest.mark.parametrize(
        "confounders", [[], ["occupancy"], ["admissions", "discharges", "occupancy"]])
    def test_equals_effect_series_bit_for_bit(self, case_study, confounders):
        """`export` and `effect` print the same fitted and counterfactual to the last bit, at any lag."""
        for lag in range(6):
            design = itsa.build_design(case_study, itsa.InterventionSpec(53, lag), confounders)
            fit = fit_ols(design)
            series = effect_series(fit, design)
            post = np.flatnonzero(design.weeks >= design.changepoint)
            assert counterfactual_series(fit, design)[post].tolist() == [
                e.counterfactual for e in series.estimates]
            fitted = [e.fitted for e in series.estimates]
            assert predict(fit, design)[post].tolist() == fitted
            assert fit.fitted[post].tolist() == fitted

    def test_requires_declared_intervention_columns(self, rng):
        y = rng.normal(size=30)
        design = DesignMatrix(
            matrix=np.ones((30, 1)),
            column_names=("intercept",),
            outcome=y,
            weeks=np.arange(1, 31, dtype=float),
            changepoint=15,
        )
        with pytest.raises(DesignError, match="intervention columns"):
            counterfactual_series(fit_ols(design), design)


class TestEffectAt:
    def test_pre_intervention_week_is_exact_zero(self, reduced_case_study):
        design, fit = reduced_case_study
        est = effect_at(fit, design, 20)
        assert est.absolute_change == 0.0
        assert est.relative_change == 0.0
        assert (est.ci_lower, est.ci_upper) == (0.0, 0.0)
        assert est.counterfactual == est.fitted
        assert est.method == "ols"

    def test_arx_pre_intervention_week_is_exact_zero(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), ["occupancy"])
        fit = fit_arx(design, ArxSpec(2, ("intercept", "occupancy", "intervention")))
        est = effect_at(fit, design, 20)
        assert (est.absolute_change, est.relative_change) == (0.0, 0.0)
        assert (est.ci_lower, est.ci_upper) == (0.0, 0.0)
        assert est.counterfactual == est.fitted
        assert est.method == "arx"

    def test_pure_level_shift_recovers_step_size(self, rng):
        n = 80
        weeks = np.arange(1, n + 1)
        y = 30.0 - 12.0 * (weeks >= 41) + 0.5 * rng.normal(size=n)
        design = step_design(y, changepoint=41)
        fit = fit_ols(design)
        for week in (41, 60, 80):
            est = effect_at(fit, design, week)
            assert est.absolute_change == pytest.approx(
                fit.coefficients["intervention"], abs=1e-10
            )
            assert est.absolute_change == pytest.approx(-12.0, abs=0.5)
            assert est.method == "ols:delta"

    def test_delta_ci_matches_monte_carlo(self, rng):
        n = 200
        weeks = np.arange(1, n + 1)
        y = 50.0 - 20.0 * (weeks >= 101) + 2.0 * rng.normal(size=n)
        design = step_design(y, changepoint=101)
        fit = fit_ols(design)
        est = effect_at(fit, design, 150)

        draws = rng.multivariate_normal(fit.beta, fit.covariance, size=100_000)
        ratio = 100.0 * draws[:, 1] / draws[:, 0]
        lo, hi = np.percentile(ratio, [2.5, 97.5])
        assert est.ci_lower == pytest.approx(lo, abs=1.0)
        assert est.ci_upper == pytest.approx(hi, abs=1.0)
        assert est.relative_change == pytest.approx(np.mean(ratio), abs=1.0)

    def test_wider_interval_at_lower_confidence_is_nested(self, reduced_case_study):
        design, fit = reduced_case_study
        wide = effect_at(fit, design, 80, ci_level=0.99)
        narrow = effect_at(fit, design, 80, ci_level=0.80)
        assert wide.ci_lower < narrow.ci_lower < narrow.ci_upper < wide.ci_upper

    def test_nonpositive_counterfactual_flagged(self, rng):
        n = 60
        weeks = np.arange(1, n + 1)
        y = -5.0 + 3.0 * (weeks >= 31) + 0.2 * rng.normal(size=n)
        design = step_design(y, changepoint=31)
        fit = fit_ols(design)
        est = effect_at(fit, design, 40)
        assert est.counterfactual < 0
        assert est.relative_change is None
        assert est.ci_lower is None and est.ci_upper is None
        assert est.method.endswith("relative-undefined")

    def test_week_outside_range(self, reduced_case_study):
        design, fit = reduced_case_study
        with pytest.raises(DesignError, match="outside"):
            effect_at(fit, design, 200)

    def test_fractional_week_rejected(self, reduced_case_study):
        design, fit = reduced_case_study
        with pytest.raises(DesignError, match="whole number"):
            effect_at(fit, design, 54.5)
        assert effect_at(fit, design, 54.0) == effect_at(fit, design, 54)

    def test_invalid_ci_level(self, reduced_case_study):
        design, fit = reduced_case_study
        with pytest.raises(FitError, match="ci_level"):
            effect_at(fit, design, 60, ci_level=1.5)


class TestCaseStudyEffect:
    def test_week_after_intervention(self, reduced_case_study):
        design, fit = reduced_case_study
        est = effect_at(fit, design, 54)
        assert -70.0 < est.relative_change < -50.0
        assert est.ci_lower < -54.0
        assert est.ci_upper > -70.0

    def test_counterfactual_near_pre_period_level(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), [])
        fit = fit_ols(design)
        est = effect_at(fit, design, 54)
        assert est.counterfactual == pytest.approx(28.7, abs=1.0)
        assert est.fitted == pytest.approx(12.1, abs=1.0)

    def test_mean_post_period_effect(self, reduced_case_study):
        design, fit = reduced_case_study
        series = effect_series(fit, design)
        assert -65.0 < series.mean_relative_change < -50.0
        assert len(series.estimates) == 62
        assert series.estimates[0].week == 53

    def test_effect_is_sustained(self, reduced_case_study):
        design, fit = reduced_case_study
        series = effect_series(fit, design)
        assert series.stabilization_week is not None
        assert series.weeks_to_stabilization == series.stabilization_week - 53 + 1

    def test_arx_fit_effect(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), ["occupancy"])
        fit = fit_arx(design, ArxSpec(2, ("intercept", "occupancy", "intervention")))
        est = effect_at(fit, design, 60)
        assert est.method == "arx:delta"
        assert est.absolute_change == pytest.approx(fit.beta["intervention"], abs=1e-9)
        assert est.ci_lower < est.relative_change < est.ci_upper < 0


class TestEffectSeries:
    def test_no_post_period(self, rng):
        n = 60
        weeks = np.arange(1, n + 1)
        y = 40.0 - 10.0 * (weeks >= 31) + rng.normal(size=n)
        full = step_design(y, changepoint=31)
        fit = fit_ols(full)
        # evaluate on the pre-intervention rows only
        pre = DesignMatrix(
            matrix=full.matrix[:25],
            column_names=full.column_names,
            outcome=full.outcome[:25],
            weeks=full.weeks[:25],
            changepoint=31,
        )
        series = effect_series(fit, pre)
        assert series.estimates == ()
        assert series.mean_relative_change is None
        assert series.stabilization_week is None

    def test_constant_effect_stabilizes_immediately(self, rng):
        n = 60
        weeks = np.arange(1, n + 1)
        y = 40.0 - 10.0 * (weeks >= 31) + 0.1 * rng.normal(size=n)
        design = step_design(y, changepoint=31)
        series = effect_series(fit_ols(design), design)
        assert series.stabilization_week == 31
        assert series.weeks_to_stabilization == 1


class TestSingleEffectPath:
    """effect_series and effect_at must agree exactly, week by week."""

    @staticmethod
    def assert_series_matches_single_weeks(fit, design):
        series = effect_series(fit, design)
        assert series.estimates
        for est in series.estimates:
            assert est == effect_at(fit, design, est.week)

    def test_ols_case_study(self, full_design, full_fit):
        self.assert_series_matches_single_weeks(full_fit, full_design)

    def test_arx_case_study(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), ["occupancy"])
        fit = fit_arx(design, ArxSpec(2, ("intercept", "occupancy", "intervention")))
        self.assert_series_matches_single_weeks(fit, design)

    def test_counterfactual_crossing_zero_mixes_defined_and_undefined(self, rng):
        n = 60
        weeks = np.arange(1, n + 1)
        # the counterfactual 12 - 0.3 * week crosses zero at week 40, inside the post period
        y = 12.0 - 0.3 * weeks + 5.0 * (weeks >= 21) + 0.2 * rng.normal(size=n)
        design = step_design(y, changepoint=21, extra=weeks, extra_names=("time",))
        fit = fit_ols(design)
        series = effect_series(fit, design)
        self.assert_series_matches_single_weeks(fit, design)

        methods = [e.method for e in series.estimates]
        assert "ols:delta" in methods and "ols:relative-undefined" in methods
        for e in series.estimates:
            assert (e.counterfactual > 0) == (e.method == "ols:delta")
            assert e.absolute_change == pytest.approx(e.fitted - e.counterfactual, abs=1e-9)
            if e.method == "ols:relative-undefined":
                assert e.relative_change is None and e.ci_lower is None and e.ci_upper is None
        defined = [e.relative_change for e in series.estimates if e.relative_change is not None]
        assert series.mean_relative_change == pytest.approx(sum(defined) / len(defined))
        assert series.stabilization_week is None


class TestPerWeekReference:
    """The columnar estimates equal a per-week computation that branches on the week's case.

    The reference takes dot products, where the estimates sum elementwise
    products, so floats agree to 1e-12 rather than bit for bit; None and
    the method tags must match exactly.
    """

    @staticmethod
    def reference(fit, design, week, ci_level):
        names = fit.column_names if isinstance(fit, OlsFit) else fit.exogenous_columns
        beta = fit.beta if isinstance(fit, OlsFit) else fit.beta_vector
        cov = fit.covariance[:len(names), :len(names)]
        method = "ols" if isinstance(fit, OlsFit) else "arx"
        row = int(week - design.weeks[0])
        x = design.columns(names)[row]
        c = np.where(np.isin(names, ("intervention", "time_after")), 0.0, x)
        fitted, cf, absolute = float(x @ beta), float(c @ beta), float((x - c) @ beta)
        common = dict(week=week, observed=float(design.outcome[row]), fitted=fitted,
                      counterfactual=cf, ci_level=ci_level)
        if np.array_equal(x, c):
            return dict(common, absolute_change=0.0, relative_change=0.0,
                        ci_lower=0.0, ci_upper=0.0, method=method)
        if cf <= 0:
            return dict(common, absolute_change=absolute, relative_change=None,
                        ci_lower=None, ci_upper=None, method=method + ":relative-undefined")
        gradient = 100.0 * ((x - c) * cf - absolute * c) / cf**2
        half_width = norm.ppf(0.5 + ci_level / 2.0) * math.sqrt(gradient @ cov @ gradient)
        relative = 100.0 * absolute / cf
        return dict(common, absolute_change=absolute, relative_change=relative,
                    ci_lower=relative - half_width, ci_upper=relative + half_width,
                    method=method + ":delta")

    def assert_every_week_matches(self, fit, design, ci_level):
        series = effect_series(fit, design, ci_level)
        singles = [effect_at(fit, design, week, ci_level) for week in design.weeks]
        assert series.estimates == tuple(singles[-len(series.estimates):])
        for est in singles:
            expected = self.reference(fit, design, est.week, ci_level)
            assert dataclasses.asdict(est) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("ci_level", [0.95, 0.57])
    def test_ols_case_study(self, full_design, full_fit, ci_level):
        self.assert_every_week_matches(full_fit, full_design, ci_level)

    def test_arx_case_study(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), ["occupancy"])
        fit = fit_arx(design, ArxSpec(2, ("intercept", "occupancy", "intervention", "time_after")))
        self.assert_every_week_matches(fit, design, 0.95)

    def test_counterfactual_crossing_zero(self, rng):
        weeks = np.arange(1, 61)
        y = 12.0 - 0.3 * weeks + 5.0 * (weeks >= 21) + 0.2 * rng.normal(size=60)
        design = step_design(y, changepoint=21, extra=weeks, extra_names=("time",))
        self.assert_every_week_matches(fit_ols(design), design, 0.8)


class TestStabilizationScan:
    """The running-extremes scan must pick the same week as a scan of every tail."""

    # the stabilization week of seeds 0..4 in each case of test_matches_direct_scan
    WEEKS = {"early": [41] * 5, "late": [179, None, None, 183, None], "never": [None] * 5}

    @staticmethod
    def direct_scan(series):
        """The first week whose tail of rolling means, at least a window long, spans under the band."""
        rel = [e.relative_change for e in series.estimates]
        if None in rel or len(rel) < STABILIZATION_WINDOW:
            return None
        rolling = np.convolve(rel, np.ones(STABILIZATION_WINDOW) / STABILIZATION_WINDOW, "valid")
        for i in range(len(rolling) - STABILIZATION_WINDOW + 1):
            if rolling[i:].max() - rolling[i:].min() < STABILIZATION_SPREAD:
                return series.estimates[i].week
        return None

    # a confounder swinging by up to `swing` moves the counterfactual, and so the relative change
    @pytest.mark.parametrize("swing, changepoint, reached", [
        (0.01, 41, "early"),
        (20.0, 41, "late"),
        (20.0, 195, "never"),  # 6 post-intervention weeks, fewer than the window
    ])
    def test_matches_direct_scan(self, swing, changepoint, reached):
        n = 200
        weeks = np.arange(1, n + 1)
        found = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = swing * rng.uniform(-1.0, 1.0, n)
            y = 40.0 - 10.0 * (weeks >= changepoint) + z + 0.1 * rng.normal(size=n)
            design = step_design(y, changepoint, extra=z, extra_names=("swing",))
            series = effect_series(fit_ols(design), design)
            assert series.stabilization_week == self.direct_scan(series)
            found.append(series.stabilization_week)
        assert found == self.WEEKS[reached]

    def test_steady_drift_never_stabilizes(self, rng):
        """A relative change falling a point a week: every tail of 8 rolling means spans about 7."""
        n, changepoint = 120, 41
        weeks = np.arange(1, n + 1, dtype=float)
        after = np.maximum(weeks - changepoint + 1, 0.0)
        y = 40.0 - 0.4 * after + 0.01 * rng.normal(size=n)  # relative change about -after %
        design = step_design(y, changepoint, extra=after, extra_names=("time_after",))
        series = effect_series(fit_ols(design), design)
        assert None not in [e.relative_change for e in series.estimates]
        assert series.stabilization_week is None
