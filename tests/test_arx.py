import dataclasses
import math
import warnings

import numpy as np
import pytest

import itsa
from itsa.arx import (
    MAX_ITERATIONS,
    WHITENESS_ALPHA,
    WHITENESS_LAGS,
    ArxSpec,
    _fit_stack,
    _stationary,
    fit_arx,
    fit_nested,
    likelihood_ratio_test,
    predict_arx,
    select_baseline,
)
from itsa.cli import _candidate_sets
from itsa.diagnostics import ljung_box
from itsa.errors import FitError
from itsa.ols import fit_ols, gaussian_deviance, r_factor

from conftest import make_design


def simulate_arx1(rng, n, beta0, beta1, phi, sigma=1.0):
    x = rng.normal(size=n)
    u = np.empty(n)
    u[0] = rng.normal() * sigma / math.sqrt(1 - phi**2)
    for t in range(1, n):
        u[t] = phi * u[t - 1] + sigma * rng.normal()
    return x, beta0 + beta1 * x + u


def simulate_segmented_arx1(seed, n=2000, phi=0.5):
    """Weekly series with occupancy, a level and a trend change, and AR(1) errors."""
    rng = np.random.default_rng(seed)
    weeks = np.arange(1, n + 1, dtype=float)
    changepoint = n // 2
    post = (weeks >= changepoint).astype(float)
    time_after = post * (weeks - changepoint + 1)
    occupancy = 80.0 + 5.0 * rng.normal(size=n)
    u = np.zeros(n)
    for t in range(1, n):
        u[t] = phi * u[t - 1] + 3.0 * rng.normal()
    y = 20.0 + 0.01 * weeks + 0.8 * occupancy - 8.0 * post - 0.005 * time_after + u
    return make_design(
        np.column_stack([np.ones(n), weeks, occupancy, post, time_after]),
        y,
        ["intercept", "time", "occupancy", "intervention", "time_after"],
    )


def ar1_errors(rng, n, phi):
    u = np.zeros(n)
    for t in range(1, n):
        u[t] = phi * u[t - 1] + rng.normal()
    return u


def confounded_series(n, seed=2000):
    """Weeks 1..n of an intercept, three confounders a, b, c and AR(1) errors with phi 0.5."""
    rng = np.random.default_rng(seed)
    confounders = 50.0 + rng.normal(size=(n, 3)) * [10.0, 8.0, 5.0]
    y = 5.0 + confounders @ [0.3, -0.2, 0.8] + ar1_errors(rng, n, 0.5)
    return make_design(np.column_stack([np.ones(n), confounders]), y, ["intercept", "a", "b", "c"])


def wide_pool_design():
    """30 weeks of an intercept and 7 columns: with orders 0..3, a lag pool of 4 x 9 columns over 27 weeks."""
    rng = np.random.default_rng(30)
    x = rng.normal(size=(30, 7))
    names = ("intercept", *(f"x{i}" for i in range(1, 8)))
    y = 2.0 + x @ np.linspace(0.5, -0.5, 7) + ar1_errors(rng, 30, 0.4)
    return make_design(np.column_stack([np.ones(30), x]), y, names), [("intercept",), names]


def trend_design():
    """80 weeks of a trend: the lags of `time` are `time` less multiples of `intercept`, a dependent pool."""
    weeks = np.arange(1.0, 81.0)
    y = 10.0 + 0.3 * weeks + ar1_errors(np.random.default_rng(7), 80, 0.6)
    design = make_design(np.column_stack([np.ones(80), weeks]), y, ["intercept", "time"])
    return design, [("intercept", "time")]


def weekly_jacobian(design, fit, theta):
    """The Jacobian de/dtheta and the residuals e over the weeks after conditioning, written out directly."""
    x = np.column_stack([design.column(c) for c in fit.exogenous_columns])
    y = design.outcome
    n, k = x.shape
    cond = fit.conditioning
    beta, phi = theta[:k], theta[k:]
    u = y - x @ beta
    e = u[cond:] - sum(ph * u[cond - j : n - j] for j, ph in enumerate(phi, start=1))
    de_dbeta = -x[cond:] + sum(ph * x[cond - j : n - j] for j, ph in enumerate(phi, start=1))
    de_dphi = [-u[cond - j : n - j] for j in range(1, len(phi) + 1)]
    return np.column_stack([de_dbeta, *de_dphi]), e


def negll_gradient(design, fit, theta):
    """Analytic gradient of the profiled negative log-likelihood, written out directly."""
    jac, e = weekly_jacobian(design, fit, theta)
    return jac.T @ e / np.mean(e**2)


def central_difference_se(design, fit):
    """Standard errors from central differences of the analytic gradient."""
    theta = np.concatenate([fit.beta, fit.phi])
    h = 1e-5 * np.maximum(np.abs(theta), 1.0)
    columns = []
    for i in range(len(theta)):
        step = np.zeros(len(theta))
        step[i] = h[i]
        columns.append(
            (negll_gradient(design, fit, theta + step) - negll_gradient(design, fit, theta - step))
            / (2.0 * h[i])
        )
    hessian = np.column_stack(columns)
    return np.sqrt(np.diag(np.linalg.inv(0.5 * (hessian + hessian.T))))


def lagged_response_design(seed, n=120, phi=0.3):
    """An outcome that follows last week's covariate, modelled on this week's."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n + 1)
    u = np.zeros(n)
    for t in range(1, n):
        u[t] = phi * u[t - 1] + rng.normal()
    return make_design(np.column_stack([np.ones(n), x[1:]]), 1.0 + 2.0 * x[:-1] + u, ["intercept", "x"])


def rss_hessian_at_ols_start(design, spec, conditioning=None):
    """Half the RSS Hessian, J'J + C, at the OLS start, by central differences of J'e."""
    x = np.column_stack([design.column(c) for c in spec.exogenous_columns])
    y, p = design.outcome, spec.order
    n, k = x.shape
    cond = p if conditioning is None else conditioning

    def half_gradient(theta):
        beta, phi = theta[:k], theta[k:]
        u = y - x @ beta
        e = u[cond:] - sum(ph * u[cond - j : n - j] for j, ph in enumerate(phi, start=1))
        de_dbeta = -x[cond:] + sum(ph * x[cond - j : n - j] for j, ph in enumerate(phi, start=1))
        jac = np.column_stack([de_dbeta, *[-u[cond - j : n - j] for j in range(1, p + 1)]])
        return jac.T @ e

    theta = np.concatenate([np.linalg.lstsq(x, y, rcond=None)[0], np.zeros(p)])
    steps = 1e-5 * np.maximum(np.abs(theta), 1.0) * np.eye(len(theta))
    hessian = np.column_stack(
        [(half_gradient(theta + d) - half_gradient(theta - d)) / (2.0 * d.max()) for d in steps]
    )
    return 0.5 * (hessian + hessian.T)


@pytest.fixture(scope="module")
def occupancy_design():
    data = itsa.load_case_study()
    return itsa.build_design(data, itsa.InterventionSpec(53), ["occupancy"])


@pytest.fixture(scope="module")
def baseline_fit(occupancy_design):
    return fit_arx(occupancy_design, ArxSpec(2, ("intercept", "occupancy")))


@pytest.fixture(scope="module")
def full_arx_fit(occupancy_design):
    return fit_arx(
        occupancy_design, ArxSpec(2, ("intercept", "occupancy", "intervention"))
    )


class TestFitArx:
    def test_order_zero_matches_ols(self, rng):
        x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = rng.normal(size=40)
        design = make_design(x, y, ["intercept", "a", "b"])
        arx = fit_arx(design, ArxSpec(0, ("intercept", "a", "b")))
        ols = fit_ols(design)
        for name in ols.column_names:
            assert arx.coefficients[name] == pytest.approx(ols.coefficients[name], abs=1e-8)
        assert np.allclose(arx.residuals, ols.residuals, atol=1e-8)
        assert arx.deviance == pytest.approx(
            ols.n * (math.log(2 * math.pi * ols.rss / ols.n) + 1), abs=1e-6
        )

    def test_recovers_simulated_arx1_within_3_se(self, rng):
        x, y = simulate_arx1(rng, 400, beta0=2.0, beta1=-1.5, phi=0.6)
        design = make_design(
            np.column_stack([np.ones(400), x]), y, ["intercept", "x"]
        )
        fit = fit_arx(design, ArxSpec(1, ("intercept", "x")))
        assert fit.converged
        truth = {"intercept": 2.0, "x": -1.5, "phi1": 0.6}
        estimates = {**fit.coefficients, "phi1": fit.phi[0]}
        for name, value in truth.items():
            se = fit.standard_errors[name]
            assert abs(estimates[name] - value) < 3 * se, name

    def test_profiled_variance_identity(self, baseline_fit):
        assert baseline_fit.sigma2 == pytest.approx(
            float(np.mean(baseline_fit.residuals**2)), abs=1e-10
        )
        ne = baseline_fit.n - baseline_fit.conditioning
        assert baseline_fit.deviance == pytest.approx(
            ne * (math.log(2 * math.pi * baseline_fit.sigma2) + 1), abs=1e-8
        )

    def test_adding_a_column_never_raises_deviance(self, occupancy_design):
        small = fit_arx(
            occupancy_design, ArxSpec(2, ("intercept", "occupancy")), conditioning=2
        )
        grown = fit_arx(
            occupancy_design,
            ArxSpec(2, ("intercept", "occupancy", "intervention")),
            conditioning=2,
        )
        assert grown.deviance <= small.deviance + 1e-6

    def test_conditioning_smaller_than_order(self, occupancy_design):
        with pytest.raises(FitError, match="smaller than the order"):
            fit_arx(occupancy_design, ArxSpec(2, ("intercept",)), conditioning=1)

    def test_too_few_observations(self, rng):
        x = np.column_stack([np.ones(6), rng.normal(size=6)])
        design = make_design(x, rng.normal(size=6), ["intercept", "a"])
        with pytest.raises(FitError, match=r"^ARX\(2\) intercept\+a needs n > 2\(p \+ k\)"):
            fit_arx(design, ArxSpec(2, ("intercept", "a")))

    @pytest.mark.parametrize(
        "level, slope, order",
        [(2.0, 0.5, 1), (0.1, 0.3, 0), (0.1, 0.3, 2)],
        ids=["rss-exactly-zero", "rounding-residuals-arx0", "rounding-residuals-arx2"],
    )
    def test_exact_fit_rejected(self, level, slope, order):
        """A straight line is an exact fit whether or not its residuals round to exactly 0."""
        weeks = np.arange(40, dtype=float)
        x = np.column_stack([np.ones(40), weeks])
        design = make_design(x, level + slope * weeks, ["intercept", "time"])
        with pytest.raises(FitError, match="exactly"):
            fit_arx(design, ArxSpec(order, ("intercept", "time")))

    @pytest.mark.parametrize("order", [0, 2])
    def test_rank_deficient_columns_named(self, rng, order):
        """A column in the span of the ones before it is refused by name, as `fit_ols` does."""
        x = rng.normal(size=60)
        matrix = np.column_stack([np.ones(60), x, 3.0 * x])
        design = make_design(matrix, rng.normal(size=60), ["intercept", "a", "b"])
        with pytest.raises(FitError, match="rank deficient: column 'b'"):
            fit_arx(design, ArxSpec(order, ("intercept", "a", "b")))

    @pytest.mark.parametrize("order", [0, 2])
    def test_non_finite_rss_names_its_cause(self, rng, order):
        """As in `fit_ols`: a non-finite column, else the outcome, else an outcome too large to square."""
        weeks = np.arange(1.0, 41.0)
        matrix = np.column_stack([np.ones(40), weeks])
        spec = ArxSpec(order, ("intercept", "time"))
        y = rng.normal(size=40)
        y[7] = math.nan
        with pytest.raises(FitError, match="^the outcome holds a non-finite value$"):
            fit_arx(make_design(matrix, y, ["intercept", "time"]), spec)
        matrix[3, 1] = math.inf
        with pytest.raises(FitError, match="^design column 'time' holds a non-finite value$"):
            fit_arx(make_design(matrix, y, ["intercept", "time"]), spec)
        matrix[3, 1] = 4.0
        y = 2e156 + 1e155 * rng.normal(size=40)
        with pytest.raises(FitError, match="outcome is too large"):
            fit_arx(make_design(matrix, y, ["intercept", "time"]), spec)

    def test_coefficient_that_overflows_names_its_column(self):
        """As in `fit_ols`, with no warning. y x 1e150 on c x 1e-200: the fit alone. On c x 10^-159.22:
        the selection grid, whose ARX(0) member overflows on the common window; alone it does not,
        and its factor, which overflows, leaves every se NaN."""
        def design(scale):
            rng = np.random.default_rng(0)
            y, c = 1e150 * (10.0 + rng.normal(size=60)), scale * (1.0 + rng.normal(size=60))
            return make_design(np.column_stack([np.ones(60), c]), y, ["intercept", "c"])

        message = "^design column 'c' is too small for the outcome: its coefficient overflows$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match=message):
                fit_arx(design(1e-200), ArxSpec(1, ("intercept", "c")))
            with pytest.raises(FitError, match=message):
                select_baseline(design(10**-159.22), 3, [("intercept",), ("intercept", "c")])
            alone = fit_arx(design(10**-159.22), ArxSpec(0, ("intercept", "c")))
        assert math.isfinite(alone.coefficients["c"])
        assert all(math.isnan(se) for se in alone.standard_errors.values())

    @pytest.mark.parametrize("noise", [0.0, 0.5], ids=["exact", "noisy"])
    def test_exact_fit_rule_shared_with_fit_ols(self, rng, noise):
        """At a level of 1e6 both estimators refuse the same exact fit and score the same noisy one."""
        weeks = np.arange(1.0, 41.0)
        y = 1e6 + weeks + noise * rng.normal(size=40)
        design = make_design(np.column_stack([np.ones(40), weeks]), y, ["intercept", "time"])
        spec = ArxSpec(0, ("intercept", "time"))
        if noise:  # the residuals cancel ~6 digits of y, so the RSS agree to ~1e-10
            assert fit_arx(design, spec).deviance == pytest.approx(
                gaussian_deviance(fit_ols(design)), rel=1e-9
            )
        else:
            with pytest.raises(FitError, match="exactly"):
                fit_arx(design, spec)
            with pytest.raises(FitError, match="unbounded"):
                gaussian_deviance(fit_ols(design))

    def test_spec_validation(self):
        with pytest.raises(FitError, match="non-negative"):
            ArxSpec(-1, ("intercept",))
        with pytest.raises(FitError, match="at least one exogenous"):
            ArxSpec(1, ())

    def test_long_series_with_trend_converges(self):
        """2 000 weeks with a time column: the fit must reach its gradient tolerance.

        A BFGS fit stopped short of it on this seed, and the likelihood-ratio
        test then refused the pair.
        """
        design = simulate_segmented_arx1(seed=9)
        baseline = fit_arx(design, ArxSpec(1, ("intercept", "time", "occupancy")))
        full = fit_arx(
            design,
            ArxSpec(1, ("intercept", "time", "occupancy", "intervention", "time_after")),
        )
        assert baseline.converged and full.converged
        assert likelihood_ratio_test(baseline, full).lambda_ >= 0.0

    def test_nonstationary_fit_warns(self, rng):
        y = np.empty(120)  # mildly explosive autoregression
        y[0] = 1.0
        for t in range(1, 120):
            y[t] = 1.05 * y[t - 1] + rng.normal()
        design = make_design(np.ones((120, 1)), y, ["intercept"])
        with pytest.warns(UserWarning, match="unit circle"):
            fit = fit_arx(design, ArxSpec(1, ("intercept",)))
        assert not fit.stationary


    @pytest.mark.parametrize("scale", [1e100, 2.0**400, 1e150], ids=["1e100", "2^400", "1e150"])
    def test_outcome_scale_scales_only_beta_and_its_se(self, scale):
        """Scaling y by s scales beta and its se by s and leaves phi and its se, with no warning.

        J'e is of y's scale, so its square, which the information used to take, overflowed
        from about 1e100 and left every se NaN.
        """
        rng = np.random.default_rng(3)
        y, c = 10.0 + rng.normal(size=60), 1.0 + rng.normal(size=60)
        x, spec = np.column_stack([np.ones(60), c]), ArxSpec(1, ("intercept", "c"))
        plain = fit_arx(make_design(x, y, spec.exogenous_columns), spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = fit_arx(make_design(x, scale * y, spec.exogenous_columns), spec)
        assert scaled.converged and plain.converged
        assert scaled.phi == pytest.approx(plain.phi, rel=1e-12)
        assert scaled.beta == pytest.approx(scale * plain.beta, rel=1e-12)
        se = plain.standard_errors
        expected = {name: se[name] * (1.0 if name.startswith("phi") else scale) for name in se}
        assert scaled.standard_errors == pytest.approx(expected, rel=1e-12)


class TestCaseStudyArx:
    def test_baseline_deviance(self, baseline_fit):
        assert baseline_fit.converged
        assert baseline_fit.deviance == pytest.approx(847.31, abs=0.5)

    def test_full_model_deviance(self, full_arx_fit):
        assert full_arx_fit.converged
        assert full_arx_fit.deviance == pytest.approx(835.15, abs=0.5)

    def test_full_model_coefficients(self, full_arx_fit):
        assert full_arx_fit.coefficients["intercept"] == pytest.approx(-55.48, abs=0.5)
        assert full_arx_fit.coefficients["occupancy"] == pytest.approx(1.02, abs=0.05)
        assert full_arx_fit.coefficients["intervention"] == pytest.approx(-12.60, abs=0.25)
        assert full_arx_fit.phi[0] == pytest.approx(0.035, abs=0.05)
        assert full_arx_fit.phi[1] == pytest.approx(0.187, abs=0.05)

    def test_full_model_standard_errors(self, full_arx_fit):
        expected = {
            "intercept": 18.46,
            "occupancy": 0.214,
            "intervention": 2.654,
            "phi1": 0.0934,
            "phi2": 0.0937,
        }
        for name, value in expected.items():
            assert abs(full_arx_fit.standard_errors[name] - value) < 0.5 * value, name

    # deviance, phi, beta and finite-difference standard errors of the BFGS fits
    # this optimizer replaced
    PINNED = {
        ("intercept", "occupancy"): dict(
            deviance=847.3341402496883,
            phi=(0.1950448798545539, 0.3640963384834911),
            beta={"intercept": -72.30975117049414, "occupancy": 1.1397092364522614},
            se={
                "intercept": 18.554068187563452,
                "occupancy": 0.22075415927849507,
                "phi1": 0.09030609578548238,
                "phi2": 0.08854431501372843,
            },
        ),
        ("intercept", "occupancy", "intervention"): dict(
            deviance=835.1525275775698,
            phi=(0.03455391413400966, 0.18648668336981097),
            beta={
                "intercept": -55.47716499665532,
                "occupancy": 1.0229838081815827,
                "intervention": -12.595238063426853,
            },
            se={
                "intercept": 18.45638117069477,
                "occupancy": 0.21368817135025933,
                "intervention": 2.6543151522824813,
                "phi1": 0.09340148706561602,
                "phi2": 0.09373331355708417,
            },
        ),
    }

    @pytest.fixture(params=["baseline_fit", "full_arx_fit"])
    def case_fit(self, request):
        return request.getfixturevalue(request.param)

    def test_standard_errors_match_gradient_differences(self, occupancy_design, case_fit):
        expected = central_difference_se(occupancy_design, case_fit)
        got = np.array(list(case_fit.standard_errors.values()))
        assert np.allclose(got, expected, rtol=1e-6, atol=0.0)

    def test_pinned_estimates(self, case_fit):
        pinned = self.PINNED[case_fit.exogenous_columns]
        assert case_fit.deviance == pytest.approx(pinned["deviance"], rel=1e-6)
        assert case_fit.phi == pytest.approx(pinned["phi"], rel=1e-6)
        assert case_fit.coefficients == pytest.approx(pinned["beta"], rel=1e-6)
        assert case_fit.standard_errors == pytest.approx(pinned["se"], rel=1e-4)

    def test_iterations_reported(self, case_fit):
        assert 1 <= case_fit.iterations < MAX_ITERATIONS

    def test_stops_on_the_offset_test(self, case_fit):
        assert case_fit.stop_reason == "offset"

    def test_stops_at_the_iteration_cap(self, occupancy_design, monkeypatch):
        monkeypatch.setattr("itsa.arx.MAX_ITERATIONS", 1)
        fit = fit_arx(occupancy_design, ArxSpec(2, ("intercept", "occupancy")))
        assert fit.stop_reason == "max_iterations"
        assert fit.iterations == 1
        assert not fit.converged

    def test_level_change_lrt(self, baseline_fit, full_arx_fit):
        result = likelihood_ratio_test(baseline_fit, full_arx_fit)
        assert result.lambda_ == pytest.approx(12.18, abs=0.5)
        assert result.df == 1
        assert result.critical_value == pytest.approx(3.84, abs=0.01)
        assert result.significant
        assert result.p_value < 0.001

    def test_trend_change_adds_nothing(self, occupancy_design, full_arx_fit):
        with_trend = fit_arx(
            occupancy_design,
            ArxSpec(2, ("intercept", "occupancy", "intervention", "time_after")),
        )
        result = likelihood_ratio_test(full_arx_fit, with_trend)
        assert result.lambda_ == pytest.approx(0.2, abs=0.3)
        assert not result.significant

    def test_convergence_does_not_depend_on_outcome_scale(self, occupancy_design):
        spec = ArxSpec(2, ("intercept", "time", "occupancy", "intervention", "time_after"))
        fit = fit_arx(occupancy_design, spec)
        for scale in (1e-8, 1e-100):  # at 1e-100, sigma2^2 underflows to 0
            tiny = dataclasses.replace(occupancy_design, outcome=occupancy_design.outcome * scale)
            tiny_fit = fit_arx(tiny, spec)
            assert tiny_fit.converged is True  # a Python bool, so JSON output can carry it
            assert tiny_fit.phi == pytest.approx(fit.phi, rel=0.0, abs=1e-8)
            assert tiny_fit.standard_errors["phi1"] == pytest.approx(fit.standard_errors["phi1"], rel=1e-6)


class TestNewtonSteps:
    def test_cli_grid_step_counts(self, case_study):
        """The CLI grid with all confounders: Gauss-Newton alone took 187 steps, up to 21 per fit."""
        confounders = ("admissions", "discharges", "occupancy")
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), list(confounders))
        candidates = [("intercept",), *(("intercept", c) for c in confounders), ("intercept", *confounders)]
        fits = [
            fit_arx(design, ArxSpec(order, columns), conditioning=3)
            for columns in candidates
            for order in range(4)
        ]
        steps = [1, 4, 4, 4, 1, 4, 5, 5, 1, 4, 5, 6, 1, 4, 5, 6, 1, 4, 5, 5]  # per candidate
        assert [fit.iterations for fit in fits] == steps
        assert {fit.stop_reason for fit in fits} == {"offset"}

    def test_indefinite_hessian_falls_back_to_gauss_newton(self, monkeypatch):
        """Seed 16, found by search: J'J + C has a negative eigenvalue at the OLS start."""
        design = lagged_response_design(seed=16)
        spec = ArxSpec(1, ("intercept", "x"))
        assert np.linalg.eigvalsh(rss_hessian_at_ols_start(design, spec))[0] < 0
        fit = fit_arx(design, spec)
        monkeypatch.setattr("itsa.arx.STOP_TOLERANCE", 0.0)
        monkeypatch.setattr("itsa.arx.MAX_ITERATIONS", 200)
        reference = fit_arx(design, spec)
        assert fit.converged and fit.stop_reason == "offset"
        assert fit.deviance == pytest.approx(reference.deviance, rel=1e-12, abs=0.0)

    def test_cli_shaped_grid_at_n_2000(self):
        """Orders 0..3 x the CLI's five column sets on 2 000 weeks, pinned as fitted at commit 0af358e.

        There every Newton pass factored its matrices over all 1 997 weeks; now it works in the lag
        pool's coordinates, which leaves each member's steps and stopping test as they were.
        """
        design = confounded_series(2000)
        specs = [ArxSpec(p, columns) for columns in _candidate_sets(("a", "b", "c")) for p in range(4)]
        fits = _fit_stack(design, specs, 3)
        steps = [1, 3, 3, 3, 1, 2, 2, 2, 1, 3, 3, 3, 1, 3, 3, 3, 1, 3, 3, 3]  # per candidate
        assert [fit.iterations for fit in fits] == steps
        assert [fit.stop_reason for fit in fits] == ["offset"] * 20
        deviances = [
            12399.439770796098, 12397.857890126697, 12397.573038429606, 12397.338703037038,
            11669.949830575073, 11669.325604444512, 11669.1896040585, 11669.154237475157,
            12200.298719319146, 12199.383951487904, 12199.335408010964, 12198.494313857751,
            10806.766719701167, 10789.48930950364, 10786.044985584282, 10785.230597741362,
            6287.777706508058, 5694.08013344831, 5694.0801119948865, 5692.838926976372,
        ]
        assert [fit.deviance for fit in fits] == pytest.approx(deviances, rel=1e-12, abs=0.0)

    def test_newton_pass_work_does_not_grow_with_n(self, monkeypatch):
        """After the OLS start and the lag pool, each pass factors (P+1)(1+c) + q rows at most, at any n."""
        specs = [ArxSpec(p, ("intercept", "c")) for p in range(3)]  # P = 2, c = 2 columns, q = 4 slots
        passes = {}
        for n in (200, 5000):
            shapes = []

            def recorder(a):
                shapes.append(a.shape)
                return r_factor(a)

            monkeypatch.setattr("itsa.arx.r_factor", recorder)
            _fit_stack(confounded_series(n), specs, 2)
            assert shapes[:2] == [(3, n + 2, 3), (n - 2, 9)]  # the OLS start, then the pool of 3 x 3 lags
            passes[n] = {shape[-2:] for shape in shapes[2:]}
        assert passes[200] == passes[5000] == {(13, 5)}


class TestStackedFits:
    """`select_baseline` fits its grid as one stack; each member must be its own fit."""

    LAGGED_GRID = [ArxSpec(p, columns) for columns in (("intercept",), ("intercept", "x")) for p in range(3)]

    @staticmethod
    def assert_same_fit(stacked, alone):
        assert (stacked.iterations, stacked.stop_reason, stacked.converged) == (
            alone.iterations,
            alone.stop_reason,
            alone.converged,
        )
        assert stacked.deviance == pytest.approx(alone.deviance, rel=1e-12, abs=0.0)
        assert stacked.coefficients == pytest.approx(alone.coefficients, rel=0.0, abs=1e-9)
        assert stacked.phi == pytest.approx(alone.phi, rel=0.0, abs=1e-9)
        assert stacked.standard_errors == pytest.approx(alone.standard_errors, rel=1e-9)

    @pytest.fixture(scope="class")
    def cli_grid(self, case_study):
        """The CLI grid with all confounders: 5 column sets x orders 0..3, conditioning 3."""
        confounders = ("admissions", "discharges", "occupancy")
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), list(confounders))
        candidates = [("intercept",), *(("intercept", c) for c in confounders), ("intercept", *confounders)]
        return design, [ArxSpec(order, columns) for columns in candidates for order in range(4)]

    def test_each_member_equals_its_fit_alone(self, cli_grid):
        design, specs = cli_grid
        for spec, stacked in zip(specs, _fit_stack(design, specs, 3)):
            self.assert_same_fit(stacked, fit_arx(design, spec, conditioning=3))

    @pytest.mark.parametrize("case", [wide_pool_design, trend_design], ids=["wider_than_window", "dependent"])
    def test_lag_pool_edge_cases(self, case):
        """Each member of orders 0..3 is its own fit, with J'e over the weeks zero at its estimate."""
        design, candidates = case()
        specs = [ArxSpec(p, columns) for columns in candidates for p in range(4)]
        for spec, stacked in zip(specs, _fit_stack(design, specs, 3)):
            self.assert_same_fit(stacked, fit_arx(design, spec, conditioning=3))
            jac, e = weekly_jacobian(design, stacked, np.concatenate([stacked.beta, stacked.phi]))
            assert np.linalg.norm(jac.T @ e) < 1e-8 * np.linalg.norm(jac) * np.linalg.norm(e)

    def test_gauss_newton_fallback_stays_with_its_member(self):
        """Only the autoregressive fits on intercept + x start with an indefinite Hessian."""
        design, specs = lagged_response_design(seed=16), self.LAGGED_GRID
        indefinite = [
            bool(np.linalg.eigvalsh(rss_hessian_at_ols_start(design, spec, 2))[0] < 0) for spec in specs
        ]
        assert indefinite == [False, False, False, False, True, True]
        for spec, stacked in zip(specs, _fit_stack(design, specs, 2)):
            self.assert_same_fit(stacked, fit_arx(design, spec, conditioning=2))

    def test_member_without_descent_stops_alone(self, monkeypatch):
        """With one halving allowed, only ARX(1) on intercept + x runs out of descent."""
        monkeypatch.setattr("itsa.arx.MAX_HALVINGS", 1)
        design, specs = lagged_response_design(seed=16), self.LAGGED_GRID
        fits = _fit_stack(design, specs, 2)
        assert [fit.stop_reason for fit in fits] == ["offset"] * 4 + ["no_descent", "offset"]
        for spec, stacked in zip(specs, fits):
            self.assert_same_fit(stacked, fit_arx(design, spec, conditioning=2))

    def test_singular_gauss_newton_step_stops_without_descent(self):
        """On an exact line the intercept and the lagged errors of ARX(2) and up are dependent.

        Their Gauss-Newton R has a zero on its diagonal: the member takes no step and stops
        unconverged, in the stack and alone, where the solve used to raise `LinAlgError`. Its
        information matrix is not positive definite, so it has no covariance factor and no se.
        """
        design = make_design(np.ones((66, 1)), 0.5 * np.arange(66.0), ["intercept"])
        specs = [ArxSpec(p, ("intercept",)) for p in range(4)]
        with pytest.warns(UserWarning, match=r"ARX\(1\) intercept has an autoregressive root"):
            fits = _fit_stack(design, specs, 3)
        assert [(fit.stop_reason, fit.converged) for fit in fits] == [
            ("offset", True), ("max_iterations", False), ("no_descent", False), ("no_descent", False)]
        for spec, stacked in zip(specs[2:], fits[2:]):
            fit = fit_arx(design, spec)
            assert (fit.stop_reason, fit.converged, fit.iterations) == ("no_descent", False, 0)
            for member in (stacked, fit):
                assert np.isnan(member.covariance_factor).all()
                assert all(math.isnan(se) for se in member.standard_errors.values())
        assert all(math.isfinite(se) for fit in fits[:2] for se in fit.standard_errors.values())

    def test_every_member_stops_at_the_iteration_cap(self, cli_grid, monkeypatch):
        design, specs = cli_grid
        monkeypatch.setattr("itsa.arx.MAX_ITERATIONS", 1)
        for fit in _fit_stack(design, specs, 3):
            assert fit.iterations == 1
            if fit.order == 0:  # the OLS step on the common window is exact
                assert fit.stop_reason == "offset"
            else:
                assert fit.stop_reason == "max_iterations"
                assert not fit.converged

    def test_undefined_covariance_stays_with_its_member(self, cli_grid, monkeypatch):
        """Only a NaN factor or a non-finite factor entry on a member's own slots empties its se.

        Slots: a member's own columns, padding up to 4 columns, then phi1..phi3; member 4c + p
        is column set c at order p. A member's U^-1 is computed when its factor is first read,
        so the patch, keyed by member, is active for that read.
        """
        design, specs = cli_grid
        edits = {
            5: [(..., math.nan)],  # ARX(1) intercept+admissions: as for information not positive definite
            0: [((2, 2), math.inf)],  # ARX(0) intercept: a slot it lacks
            10: [((0, 4), math.inf)],  # ARX(2) intercept+discharges: its (intercept, phi1) entry
            12: [((2, 3), math.nan),  # ARX(0) intercept+occupancy: the row of a slot it lacks
                 ((1, 3), math.inf)],  # and the column of one, in its occupancy row
        }
        inverse_factor = itsa.arx._inverse_factor
        for i, (spec, stacked) in enumerate(zip(specs, _fit_stack(design, specs, 3))):

            def patched(a, member_edits=edits.get(i, [])):
                out = inverse_factor(a)
                for index, value in member_edits:
                    out[index] = value
                return out

            monkeypatch.setattr("itsa.arx._inverse_factor", patched)
            factor, se = stacked.covariance_factor, stacked.standard_errors
            monkeypatch.undo()
            alone = fit_arx(design, spec, conditioning=3)
            size = len(spec.exogenous_columns) + spec.order
            assert factor.shape == (size, size)
            assert list(se) == list(alone.standard_errors)
            assert stacked.deviance == pytest.approx(alone.deviance, rel=1e-12, abs=0.0)
            if i == 5:
                assert np.isnan(factor).all()
                assert all(math.isnan(value) for value in se.values())
            elif i == 10:
                assert factor[0, 2] == math.inf
                assert all(math.isnan(value) for value in se.values())
            else:
                self.assert_same_fit(stacked, alone)
                assert factor == pytest.approx(alone.covariance_factor, rel=1e-9)

    def test_nonstationary_member_warns_once(self, rng):
        n = 120
        y = np.empty(n)  # mildly explosive autoregression
        y[0] = 1.0
        for t in range(1, n):
            y[t] = 1.05 * y[t - 1] + rng.normal()
        design = make_design(np.column_stack([np.ones(n), rng.normal(size=n)]), y, ["intercept", "z"])
        specs = [
            ArxSpec(order, columns)
            for columns in (("intercept",), ("intercept", "z"))
            for order in range(2)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = _fit_stack(design, specs, 1)
        assert [f.stationary for f in fits] == [True, False, True, False]
        expected = []
        for spec in specs[1::2]:
            with pytest.warns(UserWarning, match="unit circle") as alone:
                fit_arx(design, spec, conditioning=1)
            assert len(alone) == 1
            expected.append(str(alone[0].message))
        assert [str(w.message) for w in caught] == expected
        named = [message.split(" has ")[0] for message in expected]  # each model by its label
        assert named == ["ARX(1) intercept", "ARX(1) intercept+z"]

    def test_warning_points_at_the_caller(self, rng):
        y = np.empty(120)
        y[0] = 1.0
        for t in range(1, 120):
            y[t] = 1.05 * y[t - 1] + rng.normal()
        design = make_design(np.ones((120, 1)), y, ["intercept"])
        with pytest.warns(UserWarning, match="unit circle") as caught:
            fit_arx(design, ArxSpec(1, ("intercept",)))
        assert caught[0].filename == __file__


class TestInferenceOnRead:
    """An `ArxFit` computes its covariance factor and standard errors when first read."""

    @staticmethod
    def session_fits(case_study):
        """The CLI's selection grid with all confounders, and the `fit_nested` pair on its best fit."""
        confounders = ("admissions", "discharges", "occupancy")
        design = itsa.build_design(case_study, itsa.InterventionSpec(53), list(confounders))
        selection = select_baseline(design, 3, _candidate_sets(confounders))
        return selection, fit_nested(design, selection.best, design.intervention_columns)

    def test_factor_is_computed_once_on_first_read(self, case_study, monkeypatch):
        calls = []
        inverse_factor = itsa.arx._inverse_factor

        def recorder(a):
            calls.append(a.shape)
            return inverse_factor(a)

        monkeypatch.setattr("itsa.arx._inverse_factor", recorder)
        selection, nested = self.session_fits(case_study)
        assert len(selection.trace) == 20 and len(nested) == 2 and calls == []
        for fit, first, second in ((selection.best, "standard_errors", "covariance_factor"),
                                   (nested[-1], "covariance_factor", "standard_errors")):
            getattr(fit, first)
            assert len(calls) == 1
            getattr(fit, second), getattr(fit, first), getattr(fit, second)
            assert len(calls) == 1
            calls.clear()
        assert "covariance_factor" not in repr(nested[-1]) and "standard_errors" not in repr(nested[-1])

    def test_factor_and_se_equal_the_batched_computation(self, case_study):
        """Each fit's factor and se have the bits of one batched computation over its stack."""
        selection, nested = self.session_fits(case_study)
        for fits in ([rec.fit for rec in selection.trace], nested):
            information, shift, keep = zip(*(fit._information for fit in fits))
            sigma = np.sqrt(np.array([fit.sigma2 for fit in fits]))
            active = np.zeros(np.shape(shift), dtype=bool)
            for row, slots in zip(active, keep):
                row[slots] = True
            with np.errstate(over="ignore"):
                factors = np.ldexp(sigma[:, None, None] * np.linalg.inv(np.linalg.cholesky(
                    np.stack(information), upper=True)), -np.array(shift)[:, :, None])
            factors = np.where(active[:, :, None] & active[:, None, :], factors, 0.0)
            se = np.hypot.reduce(factors, axis=2)
            se[~np.isfinite(factors).all(axis=(1, 2))] = math.nan
            for fit, factor, row, slots in zip(fits, factors, se, keep):
                assert np.array_equal(fit.covariance_factor, factor.take(slots, axis=0).take(slots, axis=1))
                assert np.array_equal(list(fit.standard_errors.values()), row[slots])


class TestFitNested:
    """A baseline's nested extensions, as `itsa arx` fits its level and trend models: one stack."""

    @pytest.fixture(scope="class", params=[
        ((), 0), (("occupancy",), 0), (("admissions", "discharges", "occupancy"), 0), (("occupancy",), 2),
    ], ids=["none", "occupancy", "all", "lag2"])
    def cli_baseline(self, request, case_study):
        """The CLI's design and its selected baseline, for each confounder set of the golden cases."""
        confounders, lag = request.param
        design = itsa.build_design(case_study, itsa.InterventionSpec(53, lag), list(confounders))
        return design, select_baseline(design, 3, _candidate_sets(confounders)).best

    def test_each_member_equals_its_fit_alone(self, cli_baseline):
        design, baseline = cli_baseline
        columns = design.intervention_columns
        members = fit_nested(design, baseline, columns)
        assert len(members) == len(columns) == 2
        for i, member in enumerate(members, start=1):
            spec = ArxSpec(baseline.order, baseline.exogenous_columns + columns[:i])
            assert member.exogenous_columns == spec.exogenous_columns
            alone = fit_arx(design, spec, conditioning=baseline.conditioning)
            assert (member.iterations, member.stop_reason) == (alone.iterations, alone.stop_reason)
            assert member.deviance == pytest.approx(alone.deviance, rel=1e-12, abs=0.0)
            assert member.beta == pytest.approx(alone.beta, rel=0.0, abs=1e-9)
            assert member.phi == pytest.approx(alone.phi, rel=0.0, abs=1e-9)

    def test_members_keep_the_baselines_rows(self, occupancy_design):
        """A baseline conditioned on more weeks than its order passes them on: each pair is testable."""
        baseline = fit_arx(occupancy_design, ArxSpec(2, ("intercept", "occupancy")), conditioning=3)
        members = fit_nested(occupancy_design, baseline, ("intervention", "time_after"))
        assert [member.conditioning for member in members] == [3, 3]
        for small, big in zip([baseline, *members], members):
            assert likelihood_ratio_test(small, big).df == 1

    def test_no_columns_give_no_fits(self, occupancy_design, baseline_fit):
        assert fit_nested(occupancy_design, baseline_fit, ()) == []
        assert _fit_stack(occupancy_design, [], 3) == []

    def test_column_the_fit_has_is_named(self, occupancy_design, baseline_fit):
        with pytest.raises(FitError, match="column 'occupancy' is linearly dependent"):
            fit_nested(occupancy_design, baseline_fit, ("occupancy",))


class TestStationarity:
    @staticmethod
    def outside_unit_circle(phi):
        """The per-fit rule: the roots of 1 - phi_1 z - ... - phi_p z^p lie beyond 1 + 1e-8."""
        if not np.any(phi):
            return True
        roots = np.roots(np.concatenate([[1.0], -np.asarray(phi)])[::-1])
        return bool(np.all(np.abs(roots) > 1.0 + 1e-8))

    def test_matches_polynomial_roots(self):
        rng = np.random.default_rng(7)
        rows = [rng.uniform(-1.2, 1.2, size=order) for order in (1, 2, 3) for _ in range(200)]
        rows += [np.array(phi) for phi in [(1.0,), (-1.0,), (0.5, 0.5), (1.2,), (0.5,), (0.0, 0.0, 0.0)]]
        padded = np.zeros((len(rows), 3))  # a stack of mixed orders, zero beyond each row's own
        for i, phi in enumerate(rows):
            padded[i, : len(phi)] = phi
        expected = [self.outside_unit_circle(phi) for phi in rows]
        assert expected[-6:] == [False, False, False, False, True, True]  # unit and explosive roots
        assert _stationary(padded).tolist() == expected
        assert 0.2 < np.mean(expected) < 0.8  # both outcomes are exercised

    def test_order_zero_is_stationary(self):
        assert _stationary(np.zeros((3, 0))).tolist() == [True, True, True]


class TestPredictArx:
    def test_leading_values_are_nan(self, baseline_fit):
        values = predict_arx(baseline_fit)
        assert len(values) == baseline_fit.n
        assert np.all(np.isnan(values[:2]))
        assert np.all(np.isfinite(values[2:]))

    def test_consistent_with_residuals(self, baseline_fit, occupancy_design):
        """The predictions come from the fit alone: y - e after the NaN head, to the last bit."""
        expected = np.concatenate(
            [np.full(2, np.nan), occupancy_design.outcome[2:] - baseline_fit.residuals])
        assert np.array_equal(predict_arx(baseline_fit), expected, equal_nan=True)

    def test_fitted_plus_residuals_is_y(self, occupancy_design):
        """On every grid member, stacked on the common window: fitted + residuals = y there.

        (y - e) + e rounds twice, so the comparison allows a few units in the last place.
        """
        selection = select_baseline(occupancy_design, 3, [("intercept",), ("intercept", "occupancy")])
        y = occupancy_design.outcome[3:]
        for record in selection.trace:
            fit = record.fit
            assert fit.conditioning == 3 and len(fit.fitted) == len(y)
            assert fit.fitted + fit.residuals == pytest.approx(y, rel=1e-13, abs=1e-13)


class TestSelectBaseline:
    def test_case_study_selection(self, occupancy_design, case_study):
        design = itsa.build_design(
            case_study, itsa.InterventionSpec(53), ["occupancy", "admissions", "discharges"]
        )
        result = select_baseline(
            design,
            max_order=3,
            candidate_exogenous=[
                ("intercept",),
                ("intercept", "occupancy"),
                ("intercept", "occupancy", "admissions", "discharges"),
            ],
        )
        assert result.best is not None
        assert result.best.order == 2
        assert result.best.exogenous_columns == ("intercept", "occupancy")
        assert result.best.conditioning == 2  # refit on its natural window
        assert result.best.label == "ARX(2) intercept+occupancy"
        # the trace is ranked by BIC and covers the whole grid
        assert len(result.trace) == 3 * 4
        bics = [c.bic for c in result.trace]
        assert bics == sorted(bics)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_selection_does_not_depend_on_a_column_scale(self, exponent):
        """Scaling c by 2^s scales its coefficient and se by exactly 2^-s, with no warning.

        Above about 1e154 a column's squares overflow, which used to stop every +c member at its
        start; below about 1e-154 they underflow, which used to leave c's se NaN.
        """
        rng = np.random.default_rng(3)
        y, c = 10.0 + rng.normal(size=60), 1.0 + rng.normal(size=60)
        traces = []
        for scale in (1.0, 2.0**exponent):
            design = make_design(np.column_stack([np.ones(60), c * scale]), y, ["intercept", "c"])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traces.append(select_baseline(design, 3, [("intercept", "c")]).trace)
        for plain, scaled in zip(*traces):
            assert scaled.fit.label == plain.fit.label
            assert scaled.fit.converged and scaled.admissible and plain.admissible
            assert scaled.fit.deviance == pytest.approx(plain.fit.deviance, rel=1e-12)
            assert scaled.fit.coefficients["c"] == plain.fit.coefficients["c"] * 2.0**-exponent
            assert scaled.fit.standard_errors["c"] == plain.fit.standard_errors["c"] * 2.0**-exponent

    def test_single_candidate_grid(self, occupancy_design):
        result = select_baseline(
            occupancy_design, max_order=2, candidate_exogenous=[("intercept", "occupancy")]
        )
        assert result.best is not None
        assert result.best.exogenous_columns == ("intercept", "occupancy")
        assert len(result.trace) == 3

    def test_rejects_intervention_columns(self, occupancy_design):
        with pytest.raises(FitError, match="intervention column"):
            select_baseline(
                occupancy_design,
                max_order=1,
                candidate_exogenous=[("intercept", "intervention")],
            )

    def test_empty_grid(self, occupancy_design):
        result = select_baseline(occupancy_design, 2, [])
        assert result.best is None and result.trace == ()

    def test_series_too_short_for_whiteness_check(self, rng):
        design = make_design(np.ones((22, 1)), rng.normal(size=22), ["intercept"])
        with pytest.raises(
            FitError, match=r"22 weeks with maximum order 3 leave 19 .* 10-lag whiteness check"
        ):
            select_baseline(design, 3, [("intercept",)])

    def test_orders_without_whiteness_lags_are_inadmissible(self, occupancy_design):
        result = select_baseline(occupancy_design, 10, [("intercept", "occupancy")])
        for record in result.trace:
            assert type(record.whiteness_p) is float
            assert math.isnan(record.whiteness_p) == (record.fit.order >= WHITENESS_LAGS)
            if math.isnan(record.whiteness_p):
                assert not record.admissible

    @pytest.mark.parametrize("grid", ["cli", "seeded", "orders_past_the_lags"])
    def test_whiteness_p_is_each_fits_own_ljung_box(self, grid, case_study, occupancy_design):
        """The grid is scored in one pass; each p is still its fit's own `ljung_box`, bit for bit."""
        if grid == "cli":
            confounders = ("admissions", "discharges", "occupancy")
            design = itsa.build_design(case_study, itsa.InterventionSpec(53), list(confounders))
            result = select_baseline(design, 3, _candidate_sets(confounders))
            assert len(result.trace) == 20
        elif grid == "seeded":
            x, y = simulate_arx1(np.random.default_rng(7), 150, 2.0, 0.5, 0.4)
            design = make_design(np.column_stack([np.ones(150), x]), y, ["intercept", "x"])
            result = select_baseline(design, 4, [("intercept",), ("intercept", "x")])
        else:  # orders 10 and 11 leave no whiteness lags, between scored members
            result = select_baseline(occupancy_design, 11, [("intercept",), ("intercept", "occupancy")])
        for record in result.trace:
            fit = record.fit
            if fit.order >= WHITENESS_LAGS:
                assert math.isnan(record.whiteness_p) and not record.admissible
                continue
            lone = ljung_box(fit.residuals, WHITENESS_LAGS, fitted_params=fit.order)
            assert record.whiteness_p == lone.p_value
            assert record.admissible == (fit.converged and lone.p_value > WHITENESS_ALPHA)
        assert {record.admissible for record in result.trace} == {True, False}

    def test_nan_outcome_is_named(self, occupancy_design):
        """Not every member stopping after 0 steps, which read as no white candidate."""
        y = occupancy_design.outcome.copy()
        y[40] = math.nan
        design = dataclasses.replace(occupancy_design, outcome=y)
        with pytest.raises(FitError, match="^the outcome holds a non-finite value$"):
            select_baseline(design, 2, [("intercept",), ("intercept", "occupancy")])

    def test_negative_max_order(self, occupancy_design):
        with pytest.raises(FitError, match="max_order"):
            select_baseline(occupancy_design, -1, [("intercept",)])

    def test_white_noise_prefers_intercept_only(self, rng):
        picks = 0
        sims = 40
        for _ in range(sims):
            noise_cov = rng.normal(size=100)
            design = make_design(
                np.column_stack([np.ones(100), noise_cov]),
                rng.normal(size=100),
                ["intercept", "noise"],
            )
            result = select_baseline(
                design,
                max_order=1,
                candidate_exogenous=[("intercept",), ("intercept", "noise")],
            )
            if result.best is not None and result.best.exogenous_columns == ("intercept",) and result.best.order == 0:
                picks += 1
        assert picks >= 0.8 * sims


class TestLikelihoodRatioTest:
    def test_identical_models_give_zero(self, baseline_fit):
        result = likelihood_ratio_test(baseline_fit, baseline_fit)
        assert result.lambda_ == 0.0
        assert result.df == 0
        assert result.p_value == 1.0
        assert not result.significant

    def test_non_nested_columns_rejected(self, occupancy_design):
        a = fit_arx(occupancy_design, ArxSpec(0, ("intercept", "occupancy")))
        b = fit_arx(occupancy_design, ArxSpec(0, ("intercept", "intervention")))
        with pytest.raises(FitError, match="not nested"):
            likelihood_ratio_test(a, b)

    def test_order_nesting_enforced(self, occupancy_design):
        small = fit_arx(occupancy_design, ArxSpec(2, ("intercept",)), conditioning=2)
        big = fit_arx(occupancy_design, ArxSpec(1, ("intercept", "occupancy")), conditioning=2)
        with pytest.raises(FitError, match="order"):
            likelihood_ratio_test(small, big)

    def test_different_rows_rejected(self, occupancy_design, baseline_fit):
        other = fit_arx(
            occupancy_design,
            ArxSpec(2, ("intercept", "occupancy", "intervention")),
            conditioning=3,
        )
        with pytest.raises(FitError, match="different data rows"):
            likelihood_ratio_test(baseline_fit, other)

    def test_negative_statistic_rejected(self, baseline_fit, full_arx_fit):
        worse_full = dataclasses.replace(
            full_arx_fit, deviance=baseline_fit.deviance + 5.0
        )
        with pytest.raises(FitError, match="negative likelihood-ratio"):
            likelihood_ratio_test(baseline_fit, worse_full)

    def test_unconverged_fit_rejected(self, baseline_fit, full_arx_fit):
        stale = dataclasses.replace(baseline_fit, converged=False)
        with pytest.raises(FitError, match="baseline fit did not converge"):
            likelihood_ratio_test(stale, full_arx_fit)
        with pytest.raises(FitError, match="full fit did not converge"):
            likelihood_ratio_test(baseline_fit, dataclasses.replace(full_arx_fit, converged=False))

    def test_unconverged_deviance_names_the_offset_test(self, baseline_fit, full_arx_fit):
        stale = dataclasses.replace(baseline_fit, converged=False)
        with pytest.raises(FitError, match=r"relative Gauss-Newton offset above 1e-06\)"):
            likelihood_ratio_test(stale, full_arx_fit)

    def test_null_statistic_distribution(self, rng):
        """Under the null, the statistic for one spurious column is ~chi-square(1)."""
        lams = []
        for _ in range(60):
            x = np.column_stack([np.ones(80), rng.normal(size=80)])
            design = make_design(x, rng.normal(size=80), ["intercept", "spurious"])
            base = fit_arx(design, ArxSpec(0, ("intercept",)))
            full = fit_arx(design, ArxSpec(0, ("intercept", "spurious")))
            lams.append(likelihood_ratio_test(base, full).lambda_)
        # median of chi-square(1) is 0.455; 95th percentile is 3.84
        assert np.median(lams) == pytest.approx(0.455, abs=0.35)
        assert np.mean(np.array(lams) > 3.84) < 0.2
