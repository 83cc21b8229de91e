"""End-to-end acceptance checks for the analysis pipeline.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and then asserts, so the suite doubles as a checklist of the
published results the library is expected to reproduce plus the
numerical properties it must satisfy regardless of those results.
"""

import math

import numpy as np
import pytest

import itsa
from itsa.arx import ArxSpec, fit_arx, likelihood_ratio_test, select_baseline
from itsa.dataset import load_case_study, summarize
from itsa.design import InterventionSpec, build_design, recode_time
from itsa.diagnostics import durbin_watson, dw_p_value
from itsa.distributions import chi_square_sf, normal_cdf, student_t_two_sided_p
from itsa.effect import effect_at, effect_series
from itsa.ols import fit_ols, gaussian_deviance

from conftest import make_design

ALL_CONFOUNDERS = ["admissions", "discharges", "occupancy"]


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def data():
    return load_case_study()


@pytest.fixture(scope="module")
def full_model(data):
    design = build_design(data, InterventionSpec(53), ALL_CONFOUNDERS)
    return design, fit_ols(design)


@pytest.fixture(scope="module")
def occupancy_design(data):
    return build_design(data, InterventionSpec(53), ["occupancy"])


def test_criterion_1_published_coefficient_table(full_model):
    """Full segmented model matches one of the two published estimate sets."""
    _, fit = full_model
    published = [
        {  # primary report
            "intercept": -50.64, "time": -0.10, "intervention": -12.01,
            "time_after": 0.16, "admissions": 0.07, "discharges": -0.11,
            "occupancy": 1.04,
        },
        {  # supplementary report
            "intercept": -52.57, "time": -0.11, "intervention": -11.87,
            "time_after": 0.17, "admissions": 0.07, "discharges": -0.10,
            "occupancy": 1.00,
        },
    ]
    misses = []
    for name in fit.column_names:
        estimate = fit.coefficients[name]
        ok = any(
            abs(estimate - table[name]) <= max(0.05, 0.05 * abs(table[name]))
            for table in published
        )
        if not ok:
            misses.append(f"{name}={estimate:.4f}")
    predictors = [n for n in fit.column_names if n != "intercept"]
    significant = {n for n in predictors if fit.p_values[n] <= 0.05}
    pattern_ok = significant == {"intervention", "occupancy"}
    passed = not misses and pattern_ok
    report(
        1,
        passed,
        f"coefficient misses={misses or 'none'}, significant predictors={sorted(significant)}",
    )


def test_criterion_2_parsimonious_model_deviance(full_model):
    design, _ = full_model
    reduced = fit_ols(design.subset(["intercept", "intervention", "occupancy"]))
    deviance = gaussian_deviance(reduced)
    report(2, abs(deviance - 852.84) <= 0.5, f"deviance={deviance:.4f}, target 852.84 +- 0.5")


def test_criterion_3_autoregressive_pipeline(occupancy_design, data):
    design = build_design(data, InterventionSpec(53), ALL_CONFOUNDERS)
    selection = select_baseline(
        design,
        max_order=3,
        candidate_exogenous=[
            ("intercept",),
            ("intercept", "occupancy"),
            ("intercept", *ALL_CONFOUNDERS),
        ],
    )
    baseline = selection.best
    selected_ok = (
        baseline is not None
        and baseline.order == 2
        and baseline.exogenous_columns == ("intercept", "occupancy")
    )
    if not selected_ok:
        report(3, False, f"baseline selection chose {baseline and baseline.label!r}")
        return
    full = fit_arx(
        occupancy_design, ArxSpec(2, ("intercept", "occupancy", "intervention"))
    )
    level = likelihood_ratio_test(baseline, full)
    with_trend = fit_arx(
        occupancy_design,
        ArxSpec(2, ("intercept", "occupancy", "intervention", "time_after")),
    )
    trend = likelihood_ratio_test(full, with_trend)
    checks = (
        abs(baseline.deviance - 847.31) <= 2.0
        and abs(full.deviance - 835.15) <= 2.0
        and abs(level.lambda_ - 12.2) <= 1.0
        and level.lambda_ > 3.84
        and level.significant
        and not trend.significant
    )
    report(
        3,
        checks,
        f"Db={baseline.deviance:.2f} Df={full.deviance:.2f} "
        f"lambda={level.lambda_:.2f} level={'sig' if level.significant else 'ns'} "
        f"trend={'sig' if trend.significant else 'ns'}",
    )


def test_criterion_4_autoregressive_coefficients(occupancy_design):
    fit = fit_arx(occupancy_design, ArxSpec(2, ("intercept", "occupancy", "intervention")))
    checks = (
        abs(fit.coefficients["intervention"] - (-12.59)) <= 1.0
        and abs(fit.coefficients["occupancy"] - 1.02) <= 0.1
        and abs(fit.phi[1] - 0.19) <= 0.05
    )
    report(
        4,
        checks,
        f"level={fit.coefficients['intervention']:.3f} "
        f"occupancy={fit.coefficients['occupancy']:.3f} phi2={fit.phi[1]:.3f}",
    )


def test_criterion_5_durbin_watson(full_model):
    design, fit = full_model
    d = durbin_watson(fit.residuals)
    result = dw_p_value(d, design)
    # the published report pairs (statistic, p): (1.79, 0.144) or (1.66, 0.076)
    match = any(
        abs(d - stat) <= 0.05 and abs(result.p_value - p) <= 0.05
        for stat, p in ((1.79, 0.144), (1.66, 0.076))
    )
    report(
        5,
        match,
        f"stat={d:.4f} p={result.p_value:.4f}, targets (1.79, 0.144) or (1.66, 0.076)",
    )


def test_criterion_6_effect_reproduction(data):
    design = build_design(data, InterventionSpec(53), []).subset(
        ["intercept", "time", "intervention"]
    )
    fit = fit_ols(design)
    week54 = effect_at(fit, design, 54)
    series = effect_series(fit, design)
    rel = week54.relative_change
    ci_overlaps = week54.ci_lower < -54.0 and week54.ci_upper > -70.0
    checks = (
        rel is not None
        and -70.0 <= rel <= -50.0
        and ci_overlaps
        and -65.0 <= series.mean_relative_change <= -50.0
    )
    report(
        6,
        checks,
        f"week54={rel:.2f}% CI=({week54.ci_lower:.2f}, {week54.ci_upper:.2f}) "
        f"mean_post={series.mean_relative_change:.2f}%",
    )


def test_criterion_7_dataset_summary(data):
    s = summarize(data, 53)
    checks = abs(s.overall_mean - 23) <= 0.5 and abs(s.before_mean - 32) <= 1.0
    report(7, checks, f"overall={s.overall_mean:.3f} pre={s.before_mean:.3f}")


class TestCriterion8Properties:
    """Numerical properties that must hold regardless of the case-study numbers."""

    def test_ols_vs_normal_equations_oracle(self):
        rng = np.random.default_rng(8001)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(12, 60))
            k = int(rng.integers(2, 6))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = rng.normal(size=n)
            fit = fit_ols(make_design(x, y))
            beta = np.linalg.solve(x.T @ x, x.T @ y)
            worst = max(worst, float(np.max(np.abs(fit.beta - beta))))
        report(8, worst < 1e-8, f"OLS oracle: max |difference| = {worst:.2e} over 100 fits")

    def test_arx_order_zero_equals_ols(self):
        rng = np.random.default_rng(8002)
        x = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = rng.normal(size=50)
        design = make_design(x, y, ["intercept", "a", "b"])
        arx = fit_arx(design, ArxSpec(0, ("intercept", "a", "b")))
        ols = fit_ols(design)
        worst = max(
            abs(arx.coefficients[n] - ols.coefficients[n]) for n in ols.column_names
        )
        report(8, worst < 1e-8, f"ARX(0) vs OLS: max |difference| = {worst:.2e}")

    def test_time_recoding_invariance(self, data):
        design = build_design(data, InterventionSpec(53), ["occupancy"])
        base = fit_ols(design)
        shifted = fit_ols(recode_time(design, design.changepoint - 1))
        worst = float(np.max(np.abs(base.fitted - shifted.fitted)))
        report(8, worst < 1e-9, f"time recoding: max fitted difference = {worst:.2e}")

    def test_distribution_cdfs_vs_quadrature(self):
        def simpson(f, a, b, n=20000):
            xs = np.linspace(a, b, n + 1)
            ys = np.array([f(v) for v in xs])
            h = (b - a) / n
            return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())

        worst = 0.0
        for z in (-2.5, -0.7, 0.3, 1.96, 3.1):
            oracle = simpson(
                lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi), -12.0, z
            )
            worst = max(worst, abs(normal_cdf(z) - oracle))
        for x, df in ((3.84, 1), (7.8, 3), (15.5, 8)):
            c = -math.lgamma(df / 2) - (df / 2) * math.log(2)
            oracle = simpson(
                lambda v: math.exp((df / 2 - 1) * math.log(v) - v / 2 + c), x, x + 300.0
            )
            worst = max(worst, abs(chi_square_sf(x, df) - oracle))
        for t, df in ((1.5, 6), (2.2, 30)):
            cons = math.exp(
                math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
            ) / math.sqrt(df * math.pi)
            oracle = 2 * simpson(
                lambda u: cons * (1 + (t / u) ** 2 / df) ** (-(df + 1) / 2) * t / u**2,
                1e-9,
                1.0,
            )
            worst = max(worst, abs(student_t_two_sided_p(t, df) - oracle))
        report(8, worst < 1e-6, f"CDF quadrature: max |difference| = {worst:.2e}")

    def test_simulated_arx1_recovery(self):
        rng = np.random.default_rng(8003)
        n, phi_true = 500, 0.55
        x = rng.normal(size=n)
        u = np.empty(n)
        u[0] = rng.normal()
        for t in range(1, n):
            u[t] = phi_true * u[t - 1] + rng.normal()
        y = 3.0 + 2.0 * x + u
        design = make_design(np.column_stack([np.ones(n), x]), y, ["intercept", "x"])
        fit = fit_arx(design, ArxSpec(1, ("intercept", "x")))
        truth = {"intercept": 3.0, "x": 2.0, "phi1": phi_true}
        estimates = {**fit.coefficients, "phi1": fit.phi[0]}
        worst = max(
            abs(estimates[name] - value) / fit.standard_errors[name]
            for name, value in truth.items()
        )
        report(8, worst < 3.0, f"ARX(1) recovery: worst |z| = {worst:.2f} (limit 3)")

    def test_lrt_null_uniformity(self):
        rng = np.random.default_rng(8004)
        pvals = []
        for _ in range(500):
            n = 60
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = rng.normal(size=n)
            design = make_design(x, y, ["intercept", "spurious"])
            base = fit_arx(design, ArxSpec(0, ("intercept",)))
            full = fit_arx(design, ArxSpec(0, ("intercept", "spurious")))
            pvals.append(likelihood_ratio_test(base, full).p_value)
        u = np.sort(pvals)
        grid = np.arange(1, len(u) + 1) / len(u)
        ks = float(max(np.max(grid - u), np.max(u - (grid - 1 / len(u)))))
        report(8, ks < 0.1, f"LRT null uniformity: KS distance = {ks:.4f} over 500 sims")

    def test_delta_ci_vs_monte_carlo(self):
        rng = np.random.default_rng(8005)
        n = 200
        weeks = np.arange(1, n + 1)
        indicator = (weeks >= 101).astype(float)
        y = 45.0 - 18.0 * indicator + 2.5 * rng.normal(size=n)
        design = make_design(
            np.column_stack([np.ones(n), indicator]),
            y,
            ["intercept", "intervention"],
            changepoint=101,
        )
        fit = fit_ols(design)
        est = effect_at(fit, design, 150)
        covariance = fit.covariance_factor @ fit.covariance_factor.T
        draws = rng.multivariate_normal(fit.beta, covariance, size=100_000)
        ratio = 100.0 * draws[:, 1] / draws[:, 0]
        lo, hi = np.percentile(ratio, [2.5, 97.5])
        worst = max(abs(est.ci_lower - lo), abs(est.ci_upper - hi))
        report(8, worst < 1.0, f"delta CI vs Monte Carlo: max difference = {worst:.3f} pp")
