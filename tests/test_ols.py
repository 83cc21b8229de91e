import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import itsa
from itsa.dataset import TimeSeriesDataset
from itsa.distributions import student_t_two_sided_p
from itsa.errors import FitError
from itsa.ols import (EPS, TINY, _upper_triangle, exact_fit_bound, fit_ols, gaussian_deviance, linear_predictor,
                      r_factor)

from conftest import make_design


def normal_equations_oracle(x, y):
    """Brute-force (X'X)^-1 X'y with textbook standard errors."""
    n, k = x.shape
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    e = y - x @ beta
    s2 = (e @ e) / (n - k)
    return beta, np.sqrt(np.diag(s2 * xtx_inv))


class TestFitOls:
    def test_interpolating_line(self):
        t = np.arange(1.0, 7.0)
        y = 3.0 + 2.0 * t
        d = make_design(np.column_stack([np.ones(6), t]), y, ["intercept", "time"])
        fit = fit_ols(d)
        assert fit.coefficients["intercept"] == pytest.approx(3.0, abs=1e-10)
        assert fit.coefficients["time"] == pytest.approx(2.0, abs=1e-10)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations_oracle(self, rng):
        x = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        y = rng.normal(size=20)
        d = make_design(x, y)
        fit = fit_ols(d)
        beta, se = normal_equations_oracle(x, y)
        assert np.allclose(fit.beta, beta, atol=1e-8)
        assert np.allclose([fit.standard_errors[c] for c in fit.column_names], se, atol=1e-8)

    def test_recovers_noiseless_coefficients(self, rng):
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        truth = np.array([1.5, -2.0, 0.25, 4.0])
        d = make_design(x, x @ truth)
        assert np.allclose(fit_ols(d).beta, truth, atol=1e-9)

    def test_zero_rss_leaves_t_undefined(self):
        """Standard errors of 0 leave t and p undefined, without a division by zero."""
        fit = fit_ols(make_design(np.column_stack([np.ones(6), np.arange(6.0)]), np.zeros(6)))
        assert fit.rss == 0.0
        assert all(se == 0.0 for se in fit.standard_errors.values())
        assert all(math.isnan(fit.t_stats[c]) and math.isnan(fit.p_values[c]) for c in fit.column_names)

    def test_rank_deficient_names_column(self, rng):
        t = rng.normal(size=30)
        x = np.column_stack([np.ones(30), t, 2 * t])
        d = make_design(x, rng.normal(size=30), ["intercept", "a", "doubled_a"])
        with pytest.raises(FitError, match="rank deficient.*'(a|doubled_a)'"):
            fit_ols(d)

    @pytest.mark.parametrize("scale", [1e-9, 1e-12])
    def test_rank_test_ignores_column_scale(self, full_design, full_fit, scale):
        """A full-rank design stays full rank, with the same fit, when a column shrinks."""
        j = full_design.column_index("occupancy")
        matrix = full_design.matrix.copy()
        matrix[:, j] *= scale
        beta = fit_ols(replace(full_design, matrix=matrix)).beta
        beta[j] *= scale
        assert np.allclose(beta, full_fit.beta, rtol=1e-9, atol=0)

    def test_more_parameters_than_rows(self, rng):
        x = rng.normal(size=(3, 4))
        with pytest.raises(FitError, match="more observations"):
            fit_ols(make_design(x, rng.normal(size=3)))

    def test_residuals_sum_to_zero_with_intercept(self, full_fit):
        assert abs(full_fit.residuals.sum()) < 1e-6 * full_fit.n

    def test_t_stat_identity(self, full_fit):
        for name in full_fit.column_names:
            assert full_fit.t_stats[name] == pytest.approx(
                full_fit.coefficients[name] / full_fit.standard_errors[name], abs=1e-9
            )

    def test_deviance_is_the_gaussian_formula(self, full_fit):
        n = full_fit.n
        assert full_fit.deviance == pytest.approx(
            n * (math.log(2 * math.pi * full_fit.rss / n) + 1), rel=1e-12)

    def test_residual_orthogonality(self, full_design, full_fit):
        projections = full_design.matrix.T @ full_fit.residuals
        norms = np.linalg.norm(full_design.matrix, axis=0)
        assert np.all(np.abs(projections / norms) < 1e-6)

    def test_nesting_never_increases_rss(self, rng):
        for _ in range(20):
            x = np.column_stack([np.ones(25), rng.normal(size=(25, 2))])
            y = rng.normal(size=25)
            small = fit_ols(make_design(x, y))
            grown = fit_ols(make_design(np.column_stack([x, rng.normal(size=25)]), y))
            assert grown.rss <= small.rss + 1e-10


def reduced_q_reference(x, y):
    """The solve `fit_ols` used before its R-only QR, kept as a reference: beta = R^-1 (Q'y), Q formed."""
    q, r = np.linalg.qr(x)
    beta = np.linalg.inv(r) @ (q.T @ y)
    residuals = y - np.sum(x * beta, axis=1)
    return beta, float(residuals @ residuals)


def seeded_weekly_unit(seed, n=156):
    """A seeded weekly series with three confounders and a level change between weeks 60 and 100."""
    rng = np.random.default_rng(seed)
    weeks = np.arange(1, n + 1)
    changepoint = int(rng.integers(60, 101))
    occupancy = np.clip(80.0 + 6.0 * np.sin(2.0 * np.pi * weeks / 52.0) + rng.normal(0.0, 3.0, n),
                        0.0, 100.0)
    admissions = rng.poisson(210.0, n).astype(float)
    discharges = rng.poisson(175.0, n).astype(float)
    y = (45.0 - 3.0 * weeks / n - 12.0 * (weeks >= changepoint) + 0.9 * (occupancy - 80.0)
         + rng.normal(0.0, 5.0, n))
    values = np.column_stack([y, occupancy, admissions, discharges])
    return TimeSeriesDataset(weeks, values, "y", ("occupancy", "admissions", "discharges")), changepoint


class TestSolveParity:
    """`fit_ols` against numpy.linalg.lstsq and the explicit-Q solve, at every lag of a 12-lag scan.

    beta agrees in norm and RSS in value within PARITY_RTOL relative. Single
    coefficients near zero can differ by more, relative to themselves.
    """

    PARITY_RTOL = 1e-12

    def scan(self, dataset, changepoint):
        confounders = list(dataset.covariate_names)
        for lag in range(12):
            yield itsa.build_design(dataset, itsa.InterventionSpec(changepoint, lag), confounders)

    def assert_parity(self, design):
        fit = fit_ols(design)
        x, y = design.matrix, design.outcome
        lstsq_beta = np.linalg.lstsq(x, y, rcond=None)[0]
        lstsq_residuals = y - x @ lstsq_beta
        references = [(lstsq_beta, float(lstsq_residuals @ lstsq_residuals)), reduced_q_reference(x, y)]
        for beta, rss in references:
            assert np.linalg.norm(fit.beta - beta) <= self.PARITY_RTOL * np.linalg.norm(beta)
            assert fit.rss == pytest.approx(rss, rel=self.PARITY_RTOL, abs=0)
        # R[k, k]^2 against the squares of the residuals that the fit computes when read
        residual_rss = float(np.vdot(fit.residuals, fit.residuals))
        assert fit.rss == pytest.approx(residual_rss, rel=self.PARITY_RTOL, abs=0)

    def test_case_study(self, case_study):
        for design in self.scan(case_study, 53):
            self.assert_parity(design)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_156_week_units(self, seed):
        for design in self.scan(*seeded_weekly_unit(seed)):
            self.assert_parity(design)

    def test_zero_outcome_has_zero_rss(self, case_study):
        for design in self.scan(case_study, 53):
            assert fit_ols(replace(design, outcome=np.zeros(design.n))).rss == 0.0


class TestRFactor:
    """`r_factor` gives the bits of `np.linalg.qr(a, mode="r")`, signs of zeros and memory layout included."""

    def assert_mode_r(self, a):
        r, expected = r_factor(a), np.linalg.qr(a, mode="r")
        assert np.array_equal(r, expected) and np.array_equal(np.signbit(r), np.signbit(expected))
        assert r.shape == expected.shape and r.strides == expected.strides

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_tall_matrix(self, rng, order):
        self.assert_mode_r(np.asarray(rng.normal(size=(156, 8)), order=order))

    def test_square_matrix(self, rng):
        self.assert_mode_r(rng.normal(size=(8, 8)))

    def test_stack_of_transposed_members(self, rng):
        self.assert_mode_r(rng.normal(size=(20, 8, 118)).mT)  # the view `_fit_stack` factors

    def test_mask_is_cached_and_read_only(self, rng):
        r_factor(rng.normal(size=(156, 8)))
        mask = _upper_triangle(8, 8)
        assert mask is _upper_triangle(8, 8) and not mask.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mask[1, 0] = True


class TestComputedOnRead:
    """`fit_ols` takes the RSS from R; residuals and inference are computed when first read."""

    ON_READ = ("fitted", "residuals", "standard_errors", "t_stats")

    def test_deviance_and_rss_compute_nothing_else(self, full_design):
        fit = fit_ols(full_design)
        assert math.isfinite(fit.deviance) and math.isfinite(fit.rss)
        assert not set(self.ON_READ) & set(vars(fit))
        assert len(fit.t_stats) == fit.k
        assert set(self.ON_READ) - set(vars(fit)) == {"fitted", "residuals"}

    def test_fitted_and_residuals_are_the_linear_predictor_bit_for_bit(self, full_design):
        fit = fit_ols(full_design)
        fitted = linear_predictor(full_design.matrix, fit.beta)
        assert np.array_equal(fit.fitted, fitted)
        assert np.array_equal(fit.residuals, full_design.outcome - fitted)
        assert fit.residuals is fit.residuals and fit.design is full_design


class TestInference:
    def test_p_values_are_the_t_tail_on_n_minus_k(self, full_fit):
        t_stats = np.array([full_fit.t_stats[c] for c in full_fit.column_names])
        expected = student_t_two_sided_p(t_stats, full_fit.n - full_fit.k)
        assert list(full_fit.p_values.values()) == expected.tolist()
        assert list(full_fit.p_values) == list(full_fit.column_names)

    def test_large_scale_column_keeps_its_standard_error(self, rng):
        """A column of scale 1e200 gets se > 0, a finite t and a p-value, without a warning.

        Scaling a column by s divides its coefficient and se by s and leaves
        its t unchanged, so the fit at scale 1 is the reference.
        """
        t = np.arange(1.0, 61.0)
        c = 1.0 + rng.normal(size=60)
        y = 10.0 + rng.normal(size=60)
        names = ["intercept", "time", "c"]
        reference = fit_ols(make_design(np.column_stack([np.ones(60), t, c]), y, names))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_ols(make_design(np.column_stack([np.ones(60), t, 1e200 * c]), y, names))
        assert fit.standard_errors["c"] > 0.0
        assert math.isfinite(fit.t_stats["c"]) and 0.0 <= fit.p_values["c"] <= 1.0
        assert fit.standard_errors["c"] * 1e200 == pytest.approx(reference.standard_errors["c"],
                                                                 rel=1e-12)
        assert fit.t_stats["c"] == pytest.approx(reference.t_stats["c"], rel=1e-12)


class TestLinearPredictor:
    """Each row's sum runs over its columns in order, whatever the layout and the other rows."""

    @pytest.mark.parametrize("extra", [0, 2, 5], ids=["k7", "k9", "k12"])
    def test_same_bits_in_either_layout_and_row_by_row(self, full_design, rng, extra):
        matrix = np.column_stack([full_design.matrix, rng.normal(size=(full_design.n, extra))])
        beta = rng.normal(size=matrix.shape[1]) * 10.0 ** rng.uniform(-3, 3, matrix.shape[1])
        by_rows = np.ascontiguousarray(matrix)
        by_columns = np.asfortranarray(matrix)
        expected = linear_predictor(by_rows, beta)
        assert np.array_equal(linear_predictor(by_columns, beta), expected)
        assert [linear_predictor(by_columns[i : i + 1], beta)[0] for i in range(len(matrix))] \
            == expected.tolist()

    def test_no_columns_predict_zero(self):
        assert linear_predictor(np.empty((4, 0)), np.empty(0)).tolist() == [0.0] * 4


class TestCaseStudyRegression:
    """The 114-week fixture with all confounders, changepoint 53."""

    def test_published_coefficient_table(self, full_fit):
        expected = {
            "intercept": -50.64,
            "time": -0.10,
            "intervention": -12.01,
            "time_after": 0.16,
            "admissions": 0.07,
            "discharges": -0.11,
            "occupancy": 1.04,
        }
        for name, value in expected.items():
            assert full_fit.coefficients[name] == pytest.approx(value, abs=0.01)

    def test_significance_pattern(self, full_fit):
        significant = {n for n in full_fit.column_names if full_fit.p_values[n] <= 0.05}
        assert significant == {"intercept", "intervention", "occupancy"}

    def test_parsimonious_model_deviance(self, full_design):
        reduced = full_design.subset(["intercept", "intervention", "occupancy"])
        assert gaussian_deviance(fit_ols(reduced)) == pytest.approx(852.84, abs=0.5)


class TestGaussianDeviance:
    def test_matches_pointwise_density_oracle(self, rng):
        x = np.column_stack([np.ones(10), rng.normal(size=10)])
        y = rng.normal(size=10)
        fit = fit_ols(make_design(x, y))
        s2 = fit.rss / fit.n
        oracle = -2 * sum(
            -0.5 * math.log(2 * math.pi * s2) - e**2 / (2 * s2) for e in fit.residuals
        )
        assert gaussian_deviance(fit) == pytest.approx(oracle, abs=1e-9)

    def test_doubling_residuals_adds_2n_log2(self, rng):
        x = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.normal(size=40)
        fit = fit_ols(make_design(x, y))
        stretched = fit.fitted + 2 * fit.residuals
        refit = fit_ols(make_design(x, stretched))
        assert gaussian_deviance(refit) - gaussian_deviance(fit) == pytest.approx(
            2 * fit.n * math.log(2), abs=1e-6
        )

    def test_large_level_series_is_not_exact(self, rng):
        """An RSS far above the rounding of y gets the Gaussian deviance, whatever the level."""
        t = np.arange(1.0, 41.0)
        y = 1e6 + t + rng.normal(0.0, 0.5, size=40)
        fit = fit_ols(make_design(np.column_stack([np.ones(40), t]), y))
        n = fit.n
        direct = n * (math.log(2 * math.pi * fit.rss / n) + 1)
        assert gaussian_deviance(fit) == pytest.approx(direct, rel=1e-12)

    def test_zero_rss_is_signaled(self):
        t = np.arange(1.0, 6.0)
        fit = fit_ols(make_design(np.column_stack([np.ones(5), t]), 1 + t))
        with pytest.raises(FitError, match="RSS = 0"):
            gaussian_deviance(fit)


def three_comparison_rule(rss, y, rows):
    """The exact-fit rule `exact_fit_bound` replaced, kept as the reference for its verdicts."""
    if rss <= rows * TINY:
        return True
    scale = rows * (10.0 * EPS) ** 2
    return rss <= scale * float(y @ y) and rss <= scale * float(np.abs(y).max()) ** 2


class TestExactFitBound:
    SCALES = [5e-324, 1e-320, 2.2e-308, 1e-300, 1e-170, 1e-160, 1e-150, 1e-100, 1e-10, 1.0, 3.7,
              1e10, 1e100, 1e150]

    @pytest.mark.parametrize("rows", [1, 2, 7, 114, 10_000])
    def test_verdicts_match_the_three_comparison_rule(self, rows):
        """Over outcome scales from subnormal to 1e150, RSS = 0 and RSS near the bound.

        The two rules round the bound differently, so their verdicts may differ for an
        RSS within a few ulps of it; everywhere else they are identical.
        """
        shape = np.array([1.0, -0.5, 0.25, 0.75, -1.0, 0.0])
        for scale in self.SCALES:
            y = scale * shape
            bound = exact_fit_bound(y, rows)
            ulp = np.spacing(bound)
            for rss in [0.0, bound / 2, bound * 2, *(bound + k * ulp for k in (-64, -4, 4, 64))]:
                assert three_comparison_rule(rss, y, rows) == (rss <= bound), (scale, rss)

    @pytest.mark.parametrize("scale", [1.35e154, 2e156, 1e300, 1.7e308])
    def test_large_outcome_gives_a_number(self, scale):
        """Where the reference's float ** 2 overflows, the bound is a number (inf at the top)."""
        y = scale * np.array([1.0, -0.5, 0.25])
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            three_comparison_rule(1.0, y, 3)
        square = (10.0 * EPS * scale) ** 2 if scale < 1e160 else math.inf
        assert exact_fit_bound(y, 3) == 3 * square

    def test_floor_is_rows_of_the_smallest_normal_float(self):
        assert exact_fit_bound(np.zeros(4), 4) == 4 * TINY
        assert exact_fit_bound(np.array([1e-300]), 10) == 10 * TINY


class TestNonFiniteRss:
    """A fit whose RSS is not finite is refused with its cause, and warns of nothing."""

    def design(self, y, **changes):
        t = np.arange(1.0, 41.0)
        return replace(make_design(np.column_stack([np.ones(40), t]), y, ["intercept", "time"]),
                       **changes)

    def test_nan_outcome_is_named(self):
        y = np.arange(40.0) % 7
        y[12] = math.nan
        with pytest.raises(FitError, match="^the outcome holds a non-finite value$"):
            fit_ols(self.design(y))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_design_column_is_named(self, value):
        d = self.design(np.arange(40.0) % 7)
        matrix = d.matrix.copy()
        matrix[5, 1] = value
        with pytest.raises(FitError, match="^design column 'time' holds a non-finite value$"):
            fit_ols(replace(d, matrix=matrix))

    def test_outcome_too_large_for_its_sum_of_squares(self, rng):
        y = 2e156 + 1e155 * rng.normal(size=40)
        with pytest.raises(FitError, match="outcome is too large"):
            fit_ols(self.design(y))

    def test_outcome_near_the_largest_float_is_refused_without_a_warning(self, rng):
        """Overflow in the solve itself is left to the RSS check, which names its cause."""
        y = 1.7e308 * (0.5 + 0.1 * rng.normal(size=40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="^the outcome is too large"):
                fit_ols(self.design(y))

    @pytest.mark.parametrize("scale, what", [(1e-200, "coefficient"), (10**-159.22, "standard error")],
                             ids=["coefficient", "standard-error"])
    def test_coefficient_that_overflows_names_its_column(self, scale, what):
        """y near 1e151, with a finite RSS. On a column of scale 1e-200, beta_c near 1e350 is not finite;
        at 10^-159.22, beta_c near -1.6e308 is, but its standard error is not."""
        rng = np.random.default_rng(0)
        y, c = 1e150 * (10.0 + rng.normal(size=60)), scale * (1.0 + rng.normal(size=60))
        d = make_design(np.column_stack([np.ones(60), np.arange(1.0, 61.0), c]), y,
                        ["intercept", "time", "c"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="^design column 'c' is too small for the outcome: "
                                               f"its {what} overflows$"):
                fit_ols(d)

    def test_largest_outcome_with_a_finite_rss_fits(self, rng):
        y = 1e150 * (1.0 + rng.normal(size=40))
        fit = fit_ols(self.design(y))
        assert math.isfinite(fit.rss) and math.isfinite(fit.deviance)


class TestPredict:
    def test_case_study_week_54_near_narrative_value(self, case_study):
        # plain segmented design, no confounders
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), [])
        fit = fit_ols(design)
        week54 = fit.fitted[53]
        assert week54 == pytest.approx(11, abs=1.5)


def test_import_loads_no_scipy_linalg_or_optimize():
    """Only `scipy.special` is needed; `scipy.linalg` alone adds about 7 MB to start-up."""
    src = os.path.dirname(os.path.dirname(itsa.__file__))
    code = "import sys, itsa; print(sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
