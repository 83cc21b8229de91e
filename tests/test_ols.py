import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import itsa
from itsa.errors import FitError
from itsa.ols import fit_ols, gaussian_deviance, predict

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

    def test_deviance_is_minus_twice_loglik(self, full_fit):
        assert full_fit.deviance == pytest.approx(-2 * full_fit.log_likelihood, abs=1e-9)

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


class TestPredict:
    def test_training_design_returns_fitted(self, full_design, full_fit):
        values = predict(full_fit, full_design)
        assert np.array_equal(values, full_fit.fitted)
        assert np.allclose(full_design.outcome - values, full_fit.residuals)

    def test_column_mismatch(self, full_design, full_fit):
        reduced = full_design.subset(["intercept", "time"])
        with pytest.raises(FitError, match="do not match"):
            predict(full_fit, reduced)

    def test_case_study_week_54_near_narrative_value(self, case_study):
        # plain segmented design, no confounders
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), [])
        fit = fit_ols(design)
        week54 = predict(fit, design)[53]
        assert week54 == pytest.approx(11, abs=1.5)


def test_import_loads_no_scipy_linalg_or_optimize():
    """Only `scipy.special` is needed; `scipy.linalg` alone adds about 7 MB to start-up."""
    src = os.path.dirname(os.path.dirname(itsa.__file__))
    code = "import sys, itsa; print(sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
