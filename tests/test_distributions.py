import math

import numpy as np
import pytest

from itsa.distributions import (
    chi_square_quantile,
    chi_square_sf,
    normal_cdf,
    normal_quantile,
    student_t_two_sided_p,
)
from itsa.errors import ItsaError


def simpson(f, a, b, n=4000):
    """Composite Simpson quadrature; independent check for every CDF."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.array([f(v) for v in x])
    h = (b - a) / n
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def t_pdf(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def chi2_pdf(x, df):
    if x <= 0:
        return 0.0
    return math.exp(
        (df / 2 - 1) * math.log(x) - x / 2 - math.lgamma(df / 2) - (df / 2) * math.log(2)
    )


class TestNormal:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_975_quantile_value(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("z", [-6.0, -3.2, -1.0, -0.1, 0.4, 2.5, 5.0, 8.0])
    def test_against_quadrature(self, z):
        oracle = simpson(normal_pdf, -12.0, z, n=20000)
        assert normal_cdf(z) == pytest.approx(oracle, abs=1e-10)

    def test_reflection(self, rng):
        for z in rng.uniform(-8, 8, size=50):
            assert normal_cdf(-z) == pytest.approx(1.0 - normal_cdf(z), abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(-8, 8, 401)
        values = [normal_cdf(z) for z in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_non_finite_rejected(self):
        with pytest.raises(ItsaError):
            normal_cdf(float("inf"))

    def test_quantile_round_trip(self):
        for p in [0.001, 0.025, 0.3, 0.5, 0.84, 0.975, 0.999]:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


class TestStudentT:
    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_level_change_row(self):
        # two-sided p for t = -2.97 on 107 degrees of freedom
        assert student_t_two_sided_p(-2.97, 107) == pytest.approx(0.004, abs=0.0005)

    def test_baseline_trend_row(self):
        assert student_t_two_sided_p(-1.08, 107) == pytest.approx(0.283, abs=0.001)

    @pytest.mark.parametrize("t,df", [(1.3, 4), (-2.2, 17), (0.7, 107), (3.5, 2)])
    def test_against_quadrature(self, t, df):
        # substitute x = |t|/u to integrate the tail out to infinity
        a = abs(t)
        oracle = 2 * simpson(lambda u: t_pdf(a / u, df) * a / u**2, 1e-9, 1.0, n=40000)
        assert student_t_two_sided_p(t, df) == pytest.approx(oracle, abs=1e-8)

    def test_large_df_matches_normal(self):
        for t in np.linspace(-4, 4, 17):
            two_sided_normal = 2 * normal_cdf(-abs(t)) if t != 0 else 1.0
            assert student_t_two_sided_p(t, 1e6) == pytest.approx(two_sided_normal, abs=1e-4)

    def test_invalid_df(self):
        with pytest.raises(ItsaError):
            student_t_two_sided_p(1.0, 0)


class TestChiSquare:
    def test_sf_at_zero(self):
        for df in (1, 3, 10):
            assert chi_square_sf(0.0, df) == 1.0

    def test_05_critical_value(self):
        assert chi_square_quantile(0.95, 1) == pytest.approx(3.84, abs=0.01)

    def test_sf_against_quadrature(self):
        oracle = simpson(lambda x: chi2_pdf(x, 1), 12.16, 500.0, n=40000)
        assert oracle == pytest.approx(4.9e-4, abs=1e-5)
        assert chi_square_sf(12.16, 1) == pytest.approx(oracle, abs=1e-5)

    def test_quantile_round_trip(self):
        for p in (0.5, 0.9, 0.95, 0.99):
            for df in range(1, 11):
                x = chi_square_quantile(p, df)
                assert chi_square_sf(x, df) == pytest.approx(1 - p, abs=1e-7)

    def test_monotone(self):
        grid = np.linspace(0, 40, 200)
        values = [chi_square_sf(x, 4) for x in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ItsaError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ItsaError):
            chi_square_quantile(1.5, 2)
        with pytest.raises(ItsaError):
            chi_square_quantile(0.95, 0)

