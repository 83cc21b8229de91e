"""The three benchmark workloads: seeded inputs, one analysis, output checks.

Each workload is a `Workload` with three steps:

* `make_inputs(seed)` builds the inputs from the seed alone (outside any
  timing). The program only ever sees the generated data.
* `analyse(inp)` is one complete analysis; its wall time is one sample.
* `check(inp, result)` compares the result with references the benchmark
  computes itself and returns the list of mismatches (empty when correct).

Library functions are looked up on their modules at call time, so the
traced run sees the wrappers `spans.Tracer` installs on those modules.

Every generated series also satisfies the case-study plausibility rules
(outcome >= 0, occupancy in [0, 100], admissions and discharges >= 0,
week >= 1), so relaxing those rules in the library does not change what
the workloads compute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import itsa.arx
import itsa.cli
import itsa.dataset
import itsa.design
import itsa.diagnostics
import itsa.effect
import itsa.ols

CONFOUNDERS = ("occupancy", "admissions", "discharges")
# Files the workloads write (the case-study export) stay inside the checkout.
OUTPUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          ".perfbench_out")
INTERVENTION_COLUMNS = ("intervention", "time_after")


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    make_inputs: Callable[[int], list]
    analyse: Callable[[Any], Any]
    check: Callable[[Any, Any], list]


# ---------------------------------------------------------------- generator


def _weekly_csv(rng: np.random.Generator, n: int, changepoint: int, lag: int) -> str:
    """One seeded weekly series with three confounders and a level/trend change.

    Columns are rounded to two decimals so the text is what a user would
    export; the outcome carries AR(1) errors and is floored at zero.
    """
    t = np.arange(1, n + 1, dtype=float)
    season = np.sin(2.0 * np.pi * t / 52.0)
    occupancy = np.clip(80.0 + 6.0 * season + rng.normal(0.0, 3.0, n), 0.0, 100.0)
    admissions = rng.poisson(210.0 + 15.0 * season).astype(float)
    discharges = rng.poisson(175.0 + 12.0 * season).astype(float)
    u = np.empty(n)
    u[0] = rng.normal(0.0, 5.0)
    shocks = rng.normal(0.0, 5.0, n)
    for i in range(1, n):
        u[i] = 0.35 * u[i - 1] + shocks[i]
    effective = changepoint + lag
    post = (t >= effective).astype(float)
    after = np.where(post > 0, t - effective + 1.0, 0.0)
    level = -rng.uniform(8.0, 16.0)
    outcome = (
        45.0
        - 3.0 * t / n
        + level * post
        + 0.5 * after / n * 52.0
        + 0.9 * (occupancy - 80.0)
        + 0.05 * (admissions - 210.0)
        - 0.05 * (discharges - 175.0)
        + u
    )
    outcome = np.maximum(outcome, 0.0)
    lines = ["week,outcome," + ",".join(CONFOUNDERS)]
    for i in range(n):
        lines.append(
            f"{i + 1},{outcome[i]:.2f},{occupancy[i]:.2f},"
            f"{admissions[i]:.0f},{discharges[i]:.0f}"
        )
    return "\n".join(lines) + "\n"


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


# --------------------------------------------------------------- references


def _check_ols(design, fit, problems: list, label: str) -> None:
    """Coefficients against numpy.linalg.lstsq on the same matrix."""
    ref = np.linalg.lstsq(design.matrix, design.outcome, rcond=None)[0]
    got = _beta(fit, design)
    if not np.allclose(got, ref, rtol=1e-7, atol=1e-9 * (1.0 + np.abs(ref).max())):
        problems.append(f"{label}: OLS beta differs from lstsq by {np.abs(got - ref).max():.3g}")


def _check_dw(residuals, d: float, problems: list, label: str) -> None:
    e = np.asarray(residuals, dtype=float)
    ref = float(np.sum(np.diff(e) ** 2) / (e @ e))
    if not math.isclose(d, ref, rel_tol=1e-10):
        problems.append(f"{label}: Durbin-Watson {d!r} != direct formula {ref!r}")


def _check_ljung_box(residuals, lags: int, lb, problems: list, label: str) -> None:
    e = np.asarray(residuals, dtype=float)
    ec = e - e.mean()
    n = len(e)
    r = np.array([ec[h:] @ ec[:-h] for h in range(1, lags + 1)]) / (ec @ ec)
    ref = float(n * (n + 2) * np.sum(r**2 / (n - np.arange(1, lags + 1))))
    if not math.isclose(lb.statistic, ref, rel_tol=1e-9) or not 0.0 <= lb.p_value <= 1.0:
        problems.append(f"{label}: Ljung-Box q={lb.statistic!r} p={lb.p_value!r}, direct q={ref!r}")


def _counterfactual_gap(design, beta: np.ndarray) -> np.ndarray:
    """Per-week (X - X_cf) beta, with X_cf the design with intervention columns zeroed."""
    x = np.asarray(design.matrix, dtype=float)
    x_cf = x.copy()
    for name in INTERVENTION_COLUMNS:
        if name in design.column_names:
            x_cf[:, design.column_names.index(name)] = 0.0
    return (x - x_cf) @ beta


def _beta(fit, design) -> np.ndarray:
    return np.array([fit.coefficients[c] for c in design.column_names])


# -------------------------------------------------------------- case_study

CASE_FLAGS = ["--builtin-case-study", "--intervention-week", "53"]
ALL_CONFOUNDERS = ["--confounders", "admissions,discharges,occupancy"]


def _case_session(export_path: str) -> list[list[str]]:
    return [
        ["data", "validate", "--builtin-case-study"],
        ["data", "summary", "--builtin-case-study", "--split-week", "53"],
        ["fit", *CASE_FLAGS, *ALL_CONFOUNDERS],
        ["diagnose", *CASE_FLAGS, *ALL_CONFOUNDERS],
        ["arx", *CASE_FLAGS, *ALL_CONFOUNDERS, "--format", "json"],
        ["effect", *CASE_FLAGS, "--format", "json"],
        ["effect", *CASE_FLAGS, "--week", "54"],
        ["export", *CASE_FLAGS, *ALL_CONFOUNDERS, "--arx", "--output", export_path],
    ]


def _case_inputs(seed: int) -> list:
    # The built-in dataset is fixed; the seed has nothing to vary here.
    path = os.path.join(OUTPUT_DIR, f"export-{os.getpid()}.csv")
    return [{"argv": _case_session(path), "export_path": path, "oracle": _case_oracle_beta()}]


def _case_analyse(inp) -> dict:
    outputs = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in inp["argv"]:
            out = io.StringIO()
            code = itsa.cli.run(argv, out=out)
            outputs.append((code, out.getvalue()))
    return {"outputs": outputs, "console": sink.getvalue()}


def _parse_table_row(text: str, term: str) -> list[float]:
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] == term:
            return [float(c) for c in cells[1:]]
    raise ValueError(f"no row {term!r}")


def _number(text: str, pattern: str) -> float:
    """The number captured by the first match of `pattern` in `text`."""
    match = re.search(pattern, text)
    if match is None:
        raise ValueError(f"no match for {pattern!r}")
    return float(match.group(1))


# Published coefficient sets of the acceptance suite (criterion 1).
PUBLISHED_COEFFICIENTS = (
    {"intercept": -50.64, "time": -0.10, "intervention": -12.01, "time_after": 0.16,
     "admissions": 0.07, "discharges": -0.11, "occupancy": 1.04},
    {"intercept": -52.57, "time": -0.11, "intervention": -11.87, "time_after": 0.17,
     "admissions": 0.07, "discharges": -0.10, "occupancy": 1.00},
)
# Values the seed code produces for outputs no acceptance criterion covers.
PINNED_DW = (1.9795, 0.3326)
PINNED_MEAN_RELATIVE_CHANGE = -40.88722592189483
CASE_STUDY_WEEKS = 114
POST_WEEKS = 62


def _case_oracle_beta() -> dict:
    """Criterion 8 oracle: normal equations on the built-in data, all confounders."""
    text = io.StringIO()
    itsa.dataset.load_case_study().to_csv(text)
    header, *lines = text.getvalue().splitlines()
    columns = dict(zip(header.split(","), np.array([l.split(",") for l in lines], float).T))
    week = columns["week"]
    post = (week >= 53).astype(float)
    names = ("intercept", "time", "intervention", "time_after", *CONFOUNDERS)
    x = np.column_stack([np.ones_like(week), week, post, np.where(post > 0, week - 52, 0.0),
                         *(columns[c] for c in CONFOUNDERS)])
    beta = np.linalg.solve(x.T @ x, x.T @ columns["or_holds"])
    return dict(zip(names, beta))


def _case_check(inp, result) -> list:
    problems: list[str] = []
    outputs = result["outputs"]
    if len(outputs) != len(inp["argv"]):
        return [f"expected {len(inp['argv'])} command outputs, got {len(outputs)}"]
    for argv, (code, _) in zip(inp["argv"], outputs):
        if code != 0:
            problems.append(f"{' '.join(argv[:2])}: exit code {code}")
    if problems:
        return problems
    validate, summary, fit, diagnose, arx, series, week54, _ = (o[1] for o in outputs)
    try:
        if f"ok: {CASE_STUDY_WEEKS} records" not in validate:
            problems.append("data validate: record count")
        # criterion 7: overall and pre-intervention means
        overall = _parse_table_row(summary, "overall")
        before = _parse_table_row(summary, "before")
        if abs(overall[1] - 23) > 0.5 or abs(before[1] - 32) > 1.0:
            problems.append(f"criterion 7: means {overall[1]}, {before[1]}")
        # criterion 1: published table; criterion 8: normal-equations oracle
        significant = set()
        for name, ref in inp["oracle"].items():
            coef, _, _, p = _parse_table_row(fit, name)
            if not any(abs(coef - t[name]) <= max(0.05, 0.05 * abs(t[name]))
                       for t in PUBLISHED_COEFFICIENTS):
                problems.append(f"criterion 1: {name}={coef}")
            if abs(coef - ref) > 1e-4 * (1.0 + abs(ref)):
                problems.append(f"criterion 8: {name}={coef} vs oracle {ref:.6f}")
            if name != "intercept" and p <= 0.05:
                significant.add(name)
        if significant != {"intervention", "occupancy"}:
            problems.append(f"criterion 1: significant predictors {sorted(significant)}")
        # Durbin-Watson pinned at the seed value (criterion 5 fails by design)
        d = _number(diagnose, r"Durbin-Watson +stat=(\S+)")
        p = _number(diagnose, r"Durbin-Watson +stat=\S+ +p=(\S+)")
        if abs(d - PINNED_DW[0]) > 1e-4 or abs(p - PINNED_DW[1]) > 1e-3:
            problems.append(f"Durbin-Watson d={d} p={p}")
        # criteria 3 and 4: selection, deviances, LRTs, ARX coefficients
        payload = json.loads(arx)
        base, full = payload["baseline"], payload["full"]
        level, trend = payload["level_test"], payload["trend_test"]
        if base["order"] != 2 or list(base["beta"]) != ["intercept", "occupancy"]:
            problems.append(f"criterion 3: baseline ARX({base['order']}) {list(base['beta'])}")
        if not (abs(base["deviance"] - 847.31) <= 2.0 and abs(full["deviance"] - 835.15) <= 2.0
                and abs(level["lambda"] - 12.2) <= 1.0 and level["lambda"] > 3.84
                and level["significant"] and not trend["significant"]):
            problems.append(f"criterion 3: Db={base['deviance']} Df={full['deviance']} "
                            f"level={level} trend={trend}")
        if not (abs(full["beta"]["intervention"] + 12.59) <= 1.0
                and abs(full["beta"]["occupancy"] - 1.02) <= 0.1
                and abs(full["phi"][1] - 0.19) <= 0.05):
            problems.append(f"criterion 4: beta={full['beta']} phi={full['phi']}")
        if not (base["converged"] and full["converged"]):
            problems.append("arx: fit did not converge")
        # criterion 6 on the single-week report
        rel = _number(week54, r"relative change=(\S+)%")
        lo, hi = _number(week54, r"CI \((\S+)%,"), _number(week54, r", (\S+)%\)")
        if not (-70.0 <= rel <= -50.0 and lo < -54.0 and hi > -70.0):
            problems.append(f"criterion 6: week 54 {rel}% CI ({lo}, {hi})")
        # effect series: consistency of every week, pinned post-period mean
        effects = json.loads(series)
        estimates = effects["estimates"]
        if len(estimates) != POST_WEEKS or estimates[0]["week"] != 53:
            problems.append(f"effect: {len(estimates)} post weeks")
        for e in estimates:
            if not math.isclose(e["absolute_change"], e["fitted"] - e["counterfactual"],
                                rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"effect: week {e['week']} absolute change")
                break
        if abs(effects["mean_relative_change"] - PINNED_MEAN_RELATIVE_CHANGE) > 1e-6:
            problems.append(f"effect: mean relative change {effects['mean_relative_change']}")
        # export: one row per week, ARX column blank for the conditioning rows
        with open(inp["export_path"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        os.remove(inp["export_path"])
        if f"wrote {CASE_STUDY_WEEKS} rows" not in result["console"]:
            problems.append("export: no confirmation line")
        if rows[0] != "week,observed,fitted,counterfactual,arx_fitted" \
                or len(rows) != CASE_STUDY_WEEKS + 1:
            problems.append(f"export: header {rows[0]!r}, {len(rows)} lines")
        elif not (rows[1].endswith(",") and rows[2].endswith(",") and not rows[3].endswith(",")):
            problems.append("export: ARX conditioning rows")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# ------------------------------------------------------------- long_series

LONG_WEEKS = 2000
ACF_LAGS = 20
LB_LAGS = 10
# The level-change test of the case study. With `time` or `time_after` among
# the exogenous columns, BFGS misses the convergence tolerance on a few
# seeds in 20 at this length, and the LRT then refuses the fits.
ARX_BASELINE = ("intercept", "occupancy")


def _long_inputs(seed: int) -> list:
    rng = _rng(seed, 1)
    changepoint = LONG_WEEKS // 2 + int(rng.integers(-100, 101))
    text = _weekly_csv(rng, LONG_WEEKS, changepoint, 0)
    return [{"dataset": itsa.dataset.parse_csv(text), "changepoint": changepoint}]


def _long_analyse(inp) -> dict:
    design = itsa.design.build_design(
        inp["dataset"], itsa.design.InterventionSpec(inp["changepoint"]), list(CONFOUNDERS)
    )
    fit = itsa.ols.fit_ols(design)
    d = itsa.diagnostics.durbin_watson(fit.residuals)
    dw = itsa.diagnostics.dw_p_value(d, design)
    acf = itsa.diagnostics.acf(fit.residuals, ACF_LAGS)
    lb = itsa.diagnostics.ljung_box(fit.residuals, LB_LAGS)
    base = itsa.arx.fit_arx(design, itsa.arx.ArxSpec(1, ARX_BASELINE))
    full = itsa.arx.fit_arx(design, itsa.arx.ArxSpec(1, ARX_BASELINE + ("intervention",)))
    lrt = itsa.arx.likelihood_ratio_test(base, full)
    effects = itsa.effect.effect_series(fit, design)
    return {"design": design, "fit": fit, "d": d, "dw": dw, "acf": acf, "lb": lb,
            "base": base, "full": full, "lrt": lrt, "effects": effects}


def _long_check(inp, r) -> list:
    problems: list[str] = []
    design, fit = r["design"], r["fit"]
    _check_ols(design, fit, problems, "ols")
    _check_dw(fit.residuals, r["d"], problems, "dw")
    if r["dw"].statistic != r["d"] or not 0.0 <= r["dw"].p_value <= 1.0:
        problems.append(f"dw_p_value: {r['dw']}")
    e = fit.residuals - fit.residuals.mean()
    lag1 = float(e[1:] @ e[:-1] / (e @ e))
    if len(r["acf"].correlations) != ACF_LAGS or not math.isclose(
            r["acf"].correlations[0], lag1, rel_tol=1e-9, abs_tol=1e-12):
        problems.append("acf: lag-1 correlation differs from the direct formula")
    _check_ljung_box(fit.residuals, LB_LAGS, r["lb"], problems, "ljung_box")
    if not (r["base"].converged and r["full"].converged):
        problems.append("arx: fit did not converge")
    if not r["lrt"].lambda_ >= 0.0:
        problems.append(f"lrt: lambda {r['lrt'].lambda_}")
    estimates = r["effects"].estimates
    weeks = [e.week for e in estimates]
    if weeks != list(range(inp["changepoint"], LONG_WEEKS + 1)):
        problems.append(f"effect: weeks {weeks[:1]}..{weeks[-1:]}")
    else:
        ref = _counterfactual_gap(design, _beta(fit, design))[inp["changepoint"] - 1:]
        got = np.array([e.absolute_change for e in estimates])
        if not np.allclose(got, ref, rtol=1e-9, atol=1e-9):
            problems.append(f"effect: absolute change off by {np.abs(got - ref).max():.3g}")
    return problems


# -------------------------------------------------------------- panel_scan

PANEL_UNITS = 64
PANEL_WEEKS = 156
MAX_LAG = 11
EFFECT_OFFSET = 4  # weeks after the effective changepoint reported by effect_at


def _panel_inputs(seed: int) -> list:
    units = []
    for i in range(PANEL_UNITS):
        rng = _rng(seed, 2, i)
        changepoint = int(rng.integers(60, 101))
        lag = int(rng.integers(0, MAX_LAG + 1))
        units.append({"csv": _weekly_csv(rng, PANEL_WEEKS, changepoint, lag),
                      "changepoint": changepoint})
    return units


def _panel_analyse(inp) -> dict:
    cp = inp["changepoint"]
    ds = itsa.dataset.parse_csv(inp["csv"])
    written = io.StringIO()
    ds.to_csv(written)
    summary = itsa.dataset.summarize(ds, cp)
    scan = []
    for lag in range(MAX_LAG + 1):
        design = itsa.design.build_design(ds, itsa.design.InterventionSpec(cp, lag),
                                          list(CONFOUNDERS))
        fit = itsa.ols.fit_ols(design)
        scan.append((itsa.ols.gaussian_deviance(fit), lag, design, fit))
    deviance, lag, design, fit = min(scan, key=lambda s: s[0])
    effect = itsa.effect.effect_at(fit, design, cp + lag + EFFECT_OFFSET)
    d = itsa.diagnostics.durbin_watson(fit.residuals)
    lb = itsa.diagnostics.ljung_box(fit.residuals, LB_LAGS)
    return {"dataset": ds, "written": written.getvalue(), "summary": summary, "scan": scan,
            "lag": lag, "effect": effect, "d": d, "lb": lb}


def _columns(ds) -> list:
    return [ds.outcome_name, ds.covariate_names, np.asarray(ds.weeks, float),
            np.asarray(ds.outcome, float), *(np.asarray(ds.covariate(c), float)
                                             for c in ds.covariate_names)]


def _same_dataset(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_columns(a), _columns(b), strict=True))


def _panel_check(inp, r) -> list:
    problems: list[str] = []
    ds, cp = r["dataset"], inp["changepoint"]
    if len(ds) != PANEL_WEEKS:
        problems.append(f"parse_csv: {len(ds)} rows")
    if not _same_dataset(itsa.dataset.parse_csv(r["written"]), ds):
        problems.append("parse_csv(to_csv(ds)) differs from ds")
    y = np.asarray(ds.outcome, float)
    s = r["summary"]
    if not (math.isclose(s.before_mean, y[: cp - 1].mean(), rel_tol=1e-12)
            and math.isclose(s.after_mean, y[cp - 1:].mean(), rel_tol=1e-12)
            and s.n_before == cp - 1):
        problems.append(f"summarize: {s}")
    for deviance, lag, design, fit in r["scan"]:
        _check_ols(design, fit, problems, f"lag {lag}")
        ref = len(y) * (math.log(2.0 * math.pi * fit.rss / len(y)) + 1.0)
        if not math.isclose(deviance, ref, rel_tol=1e-12):
            problems.append(f"lag {lag}: deviance {deviance!r} vs {ref!r}")
    if r["lag"] != min(r["scan"], key=lambda s: s[0])[1]:
        problems.append("scan: best lag is not the minimum-deviance lag")
    _, lag, design, fit = r["scan"][r["lag"]]
    week = cp + lag + EFFECT_OFFSET
    ref = _counterfactual_gap(design, _beta(fit, design))[week - 1]
    if r["effect"].week != week or not math.isclose(r["effect"].absolute_change, ref,
                                                    rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"effect_at: {r['effect'].absolute_change!r} vs {ref!r}")
    _check_dw(fit.residuals, r["d"], problems, "dw")
    _check_ljung_box(fit.residuals, LB_LAGS, r["lb"], problems, "ljung_box")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("case_study", _case_inputs, _case_analyse, _case_check),
        Workload("long_series", _long_inputs, _long_analyse, _long_check),
        Workload("panel_scan", _panel_inputs, _panel_analyse, _panel_check),
    )
}
