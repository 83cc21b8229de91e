"""Rejection rates of the CLI's level-change test on simulated case-study series.

Each series keeps the case study's 114 weeks and its three confounders, and
gets the outcome 25 + effect(week) + u, where u is AR(1) with phi = 0.3 and
innovations N(0, 10^2), about the noise of the case study's own ARX fit.
The pipeline is the one `itsa arx` runs: `select_baseline` up to order 3
over `cli._candidate_sets` of the three confounders, the level model from
`fit_nested`, then the likelihood-ratio test of the intervention level
change at `LRT_ALPHA`. A series for which no candidate passes the
whiteness check counts as not rejected, as the CLI then exits with an
error and reports no test (1-2% of series).

Each expected rate is from one run of 5 000 series per scenario with seed 1,
independent of the test's seed. A test allows that rate +- 3 binomial
standard errors at the test's count of series.
"""

import numpy as np
import pytest

import itsa
from itsa import cli
from itsa.arx import LRT_ALPHA, fit_nested, likelihood_ratio_test, select_baseline
from itsa.dataset import TimeSeriesDataset
from itsa.design import INTERVENTION

SEED = 20261019
SERIES = 200
CONFOUNDERS = ("admissions", "discharges", "occupancy")
INTERVENTION_WEEK = 53
PHI = 0.3
SIGMA = 10.0
BURN_IN = 50


def _rejects(case_study, y) -> bool:
    values = np.column_stack([y, *(case_study.covariate(c) for c in CONFOUNDERS)])
    data = TimeSeriesDataset(weeks=case_study.weeks, values=values, outcome_name="y",
                             covariate_names=CONFOUNDERS)
    design = itsa.build_design(data, itsa.InterventionSpec(INTERVENTION_WEEK), list(CONFOUNDERS))
    selection = select_baseline(design, 3, cli._candidate_sets(CONFOUNDERS))
    if selection.best is None:
        return False
    (full,) = fit_nested(design, selection.best, (INTERVENTION,))
    return likelihood_ratio_test(selection.best, full).significant


def _rejection_rate(case_study, effect, stream: int) -> float:
    rng = np.random.default_rng([SEED, stream])
    weeks = case_study.weeks.astype(float)
    rejected = 0
    for _ in range(SERIES):
        e = rng.normal(0.0, SIGMA, len(weeks) + BURN_IN)
        u = np.empty_like(e)
        u[0] = e[0]
        for i in range(1, len(e)):
            u[i] = PHI * u[i - 1] + e[i]
        rejected += _rejects(case_study, 25.0 + effect(weeks) + u[BURN_IN:])
    return rejected / SERIES


def _band(rate: float) -> tuple[float, float]:
    se = (rate * (1.0 - rate) / SERIES) ** 0.5
    return rate - 3.0 * se, rate + 3.0 * se


@pytest.mark.parametrize("stream, effect, long_run_rate", [
    # No change at all. The long-run size, 0.058 (SE 0.003), sits above the nominal
    # LRT_ALPHA = 0.05: the test is run on the baseline that selection chose from the
    # same data, and its chi-square reference ignores that choice.
    (0, lambda weeks: 0.0 * weeks, 0.0578),
    # A level shift of -8 from the intervention week on: the power.
    (1, lambda weeks: -8.0 * (weeks >= INTERVENTION_WEEK), 0.7822),
    # No intervention effect, but a -0.1/week trend over the whole series. No
    # candidate baseline has a time column, so the test reads the drift as a level
    # change and rejects in nearly half the series. A recorded limitation: a fix that
    # lets the baseline carry the trend fails this test, and its bound should then move.
    (2, lambda weeks: -0.1 * weeks, 0.4686),
], ids=["no-trend null", "level shift", "trend null"])
def test_level_change_rejection_rate(case_study, stream, effect, long_run_rate):
    assert LRT_ALPHA == 0.05
    low, high = _band(long_run_rate)
    assert low <= _rejection_rate(case_study, effect, stream) <= high
