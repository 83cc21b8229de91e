import numpy as np
import pytest

import itsa
from itsa.arx import ArxSpec, fit_arx
from itsa.diagnostics import (
    _autocorrelations,
    acf,
    durbin_watson,
    dw_p_value,
    ljung_box,
    ljung_box_statistic,
)
from itsa.errors import FitError
from itsa.ols import fit_ols

from conftest import make_design


def dense_dw_moments(x):
    """Null mean and variance of d from the n x n matrices A, M = I - QQ' and AM."""
    n, k = x.shape
    a = 2.0 * np.eye(n)
    a[0, 0] = a[-1, -1] = 1.0
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = -1.0
    q, _ = np.linalg.qr(x)
    am = a @ (np.eye(n) - q @ q.T)
    tr1, tr2 = np.trace(am), np.trace(am @ am)
    nk = n - k
    mean = tr1 / nk
    return mean, (tr1**2 + 2.0 * tr2) / (nk * (nk + 2)) - mean**2


def ks_against_uniform(values):
    u = np.sort(values)
    n = len(u)
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - u), np.max(u - (grid - 1 / n)))


class TestDurbinWatsonStatistic:
    def test_alternating_signs(self):
        e = np.tile([1.0, -1.0], 5)
        assert durbin_watson(e) == pytest.approx(3.6)

    def test_constant_residuals(self):
        assert durbin_watson(np.full(8, 2.5)) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(FitError, match="all-zero"):
            durbin_watson(np.zeros(10))

    def test_too_short(self):
        with pytest.raises(FitError, match="at least 2"):
            durbin_watson([1.0])

    def test_any_finite_scale(self, rng):
        """d does not depend on scale; its sums of squares overflowed at 2**510, underflowed at 2**-540."""
        e = rng.normal(size=60)
        for scale in (2.0**510, 2.0**-540):  # exact scalings
            assert durbin_watson(e * scale) == durbin_watson(e)
        assert durbin_watson(e * 1e300) == pytest.approx(durbin_watson(e), rel=1e-14, abs=0.0)
        alternating = np.tile([1.2e153, -1.2e153], 30) + 1e150 * np.arange(60)
        assert durbin_watson(alternating) == pytest.approx(3.93, abs=0.01)

    def test_bounded_between_0_and_4(self, rng):
        for _ in range(50):
            d = durbin_watson(rng.normal(size=30))
            assert 0.0 <= d <= 4.0

    def test_close_to_two_one_minus_r1_for_long_series(self, rng):
        e = rng.normal(size=500)
        r1 = acf(e, 1).correlations[0]
        assert durbin_watson(e - e.mean()) == pytest.approx(2 * (1 - r1), abs=0.1)

    def test_scale_invariant(self, rng):
        e = rng.normal(size=40)
        assert durbin_watson(7.3 * e) == pytest.approx(durbin_watson(e), abs=1e-12)


class TestDwPValue:
    def test_null_mean_gives_half(self, rng):
        x = np.column_stack([np.ones(60), rng.normal(size=60)])
        design = make_design(x, rng.normal(size=60))
        result = dw_p_value(dw_p_value(2.0, design).null_mean, design)
        assert result.p_value == pytest.approx(0.5, abs=1e-12)

    def test_null_mean_near_two(self, rng):
        x = np.column_stack([np.ones(60), rng.normal(size=60)])
        result = dw_p_value(2.0, design := make_design(x, rng.normal(size=60)))
        assert 1.5 < result.null_mean < 2.5
        assert result.null_variance > 0
        # larger samples concentrate the null distribution
        big = np.column_stack([np.ones(400), rng.normal(size=400)])
        wider = dw_p_value(2.0, make_design(big, rng.normal(size=400)))
        assert wider.null_variance < result.null_variance

    def test_smaller_statistic_smaller_p(self, rng):
        x = np.column_stack([np.ones(60), rng.normal(size=60)])
        design = make_design(x, rng.normal(size=60))
        assert dw_p_value(1.2, design).p_value < dw_p_value(1.8, design).p_value

    def test_null_p_values_near_uniform(self, rng):
        """Monte Carlo: residual d under white noise gives ~uniform p-values."""
        n = 80
        x = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
        pvals = []
        for _ in range(2000):
            design = make_design(x, rng.normal(size=n))
            fit = fit_ols(design)
            pvals.append(dw_p_value(durbin_watson(fit.residuals), design).p_value)
        assert ks_against_uniform(np.array(pvals)) < 0.08

    def test_detects_strong_positive_autocorrelation(self, rng):
        n = 100
        e = np.empty(n)
        e[0] = rng.normal()
        for t in range(1, n):
            e[t] = 0.8 * e[t - 1] + rng.normal()
        x = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
        design = make_design(x, e)
        fit = fit_ols(design)
        result = dw_p_value(durbin_watson(fit.residuals), design)
        assert result.p_value < 0.01

    def test_design_too_small(self, rng):
        x = np.column_stack([np.ones(4), rng.normal(size=(4, 3))])
        with pytest.raises(FitError, match="too small"):
            dw_p_value(2.0, make_design(x, rng.normal(size=4)))

    def test_case_study_full_model(self, full_design, full_fit):
        d = durbin_watson(full_fit.residuals)
        result = dw_p_value(d, full_design)
        assert d == pytest.approx(1.9795, abs=1e-3)
        assert result.p_value == pytest.approx(0.333, abs=0.01)

    @pytest.mark.parametrize("n", [20, 114, 500])
    def test_moments_match_dense_formula(self, n, full_design, rng):
        if n == full_design.n:  # the 114-week case study
            design = full_design
        else:
            x = np.column_stack([np.ones(n), np.arange(n, dtype=float), rng.normal(size=(n, 3))])
            design = make_design(x, rng.normal(size=n))
        mean, variance = dense_dw_moments(design.matrix)
        result = dw_p_value(2.0, design)
        assert result.null_mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert result.null_variance == pytest.approx(variance, rel=1e-12, abs=0.0)


class TestAcf:
    def test_ar1_recovery(self, rng):
        n = 2000
        y = np.empty(n)
        y[0] = rng.normal()
        for t in range(1, n):
            y[t] = 0.8 * y[t - 1] + rng.normal()
        result = acf(y, 3)
        assert result.correlations[0] == pytest.approx(0.8, abs=0.05)
        assert result.correlations[1] == pytest.approx(0.64, abs=0.07)
        assert len(result.correlations) == 3  # lags 1, 2, 3

    def test_band_value(self):
        result = acf(np.arange(100.0), 2)
        assert result.band == pytest.approx(1.959964 / 10.0, abs=1e-5)  # the 95% band

    def test_white_noise_band_coverage(self, rng):
        inside = 0
        for _ in range(200):
            result = acf(rng.normal(size=300), 1)
            inside += abs(result.correlations[0]) < result.band
        assert inside >= 0.90 * 200

    def test_lag_bounds(self, rng):
        y = rng.normal(size=10)
        with pytest.raises(FitError, match="max_lag"):
            acf(y, 0)
        with pytest.raises(FitError, match="max_lag"):
            acf(y, 10)

    def test_constant_series(self):
        with pytest.raises(FitError, match="constant"):
            acf(np.full(20, 3.0), 2)

    @pytest.mark.parametrize("exponent", [-540, -510, 500, 511])
    def test_any_finite_scale(self, exponent):
        """The ACF and Ljung-Box Q do not depend on scale: their sums of products lost bits to subnormals
        at 2**-510, underflowed to "a constant series" at 2**-540 and overflowed at 2**511."""
        e = np.random.default_rng(3).normal(size=80)
        scaled = np.ldexp(e, exponent)  # exact
        assert acf(scaled, 10).correlations == acf(e, 10).correlations
        assert ljung_box(scaled, 10) == ljung_box(e, 10)
        stack = np.stack([e, -e[::-1]])
        q = ljung_box_statistic(np.ldexp(stack, exponent), 10)
        assert q.tobytes() == ljung_box_statistic(stack, 10).tobytes()

    def test_correlations_bounded(self, rng):
        result = acf(rng.normal(size=50), 10)
        assert all(-1.0 <= r <= 1.0 for r in result.correlations)


class TestLjungBox:
    def test_strong_autocorrelation_rejected(self, rng):
        n = 300
        y = np.empty(n)
        y[0] = rng.normal()
        for t in range(1, n):
            y[t] = 0.7 * y[t - 1] + rng.normal()
        assert ljung_box(y, 10).p_value < 0.01

    def test_statistic_monotone_in_lags(self, rng):
        e = rng.normal(size=200)
        stats = [ljung_box(e, lags).statistic for lags in (2, 5, 10, 20)]
        assert all(b >= a for a, b in zip(stats, stats[1:]))

    def test_df_accounts_for_fitted_params(self, rng):
        e = rng.normal(size=200)
        plain = ljung_box(e, 10)
        adjusted = ljung_box(e, 10, fitted_params=3)
        assert plain.df == 10
        assert adjusted.df == 7
        assert adjusted.statistic == pytest.approx(plain.statistic, abs=1e-12)

    def test_white_noise_not_rejected_on_average(self, rng):
        rejections = sum(
            ljung_box(rng.normal(size=150), 8).p_value < 0.05 for _ in range(200)
        )
        assert rejections <= 0.12 * 200

    def test_invalid_arguments(self, rng):
        e = rng.normal(size=30)
        with pytest.raises(FitError, match="lags > fitted_params"):
            ljung_box(e, 3, fitted_params=3)
        with pytest.raises(FitError, match="n/2"):
            ljung_box(e, 15)
        with pytest.raises(FitError, match="non-negative"):
            ljung_box(e, 5, fitted_params=-1)

    def test_case_study_intervention_model_residuals_are_white(self, case_study):
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), ["occupancy"])
        spec = ArxSpec(order=2, exogenous_columns=("intercept", "occupancy", "intervention"))
        fit = fit_arx(design, spec)
        result = ljung_box(fit.residuals, 10, fitted_params=2)
        assert result.p_value > 0.05


class TestStackedStatistics:
    """A stack of series on the last axis: each row gets the bits it gets alone."""

    @pytest.mark.parametrize("shape", [(20, 111), (3, 156), (1, 40), (2, 3, 50)])
    def test_rows_equal_lone_series(self, rng, shape):
        stack = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=(*shape[:-1], 1))
        rows = stack.reshape(-1, shape[-1])
        corr = _autocorrelations(stack, 10).reshape(len(rows), 10)
        q = ljung_box_statistic(stack, 10).reshape(len(rows))
        for i, row in enumerate(rows):
            assert corr[i].tobytes() == _autocorrelations(row, 10).tobytes()
            assert acf(row, 10).correlations == tuple(corr[i].tolist())
            assert q[i] == ljung_box(row, 10).statistic

    def test_a_constant_row_raises_as_it_does_alone(self, rng):
        stack = rng.normal(size=(4, 60))
        stack[2] = 7.5
        with pytest.raises(FitError, match="^autocorrelation is undefined for a constant series$"):
            ljung_box(stack[2], 10)
        with pytest.raises(FitError, match="^autocorrelation is undefined for a constant series$"):
            ljung_box_statistic(stack, 10)

    def test_lag_bounds_on_a_stack(self, rng):
        with pytest.raises(FitError, match=r"max_lag must lie in \[1, 9\], got 10"):
            _autocorrelations(rng.normal(size=(3, 10)), 10)
