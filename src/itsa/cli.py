"""Command-line interface.

Subcommands mirror the analysis workflow: validate and summarize the
data, fit the segmented regression, run residual diagnostics, run the
ARX baseline-selection and likelihood-ratio pipeline, quantify the
intervention effect, and export plot-ready series. All output is
deterministic for fixed inputs.

Exit codes: 0 success, 1 data or model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import arx as arx_mod
from . import dataset as dataset_mod
from . import design as design_mod
from . import diagnostics as diag_mod
from . import effect as effect_mod
from . import ols as ols_mod
from .errors import ItsaError

COEF_PRECISION = 4
P_PRECISION = 3


@dataclass
class AnalysisConfig:
    data_path: str | None = None
    builtin_case_study: bool = False
    outcome_column: str | None = None
    intervention_week: int | None = None
    lag: int = 0
    confounders: tuple[str, ...] = ()
    arx_max_order: int = 3
    ci_level: float = 0.95
    output_format: str = "table"

    def validate(self) -> None:
        if not 0.0 < self.ci_level < 1.0:
            raise ItsaError(f"ci_level must lie in (0, 1), got {self.ci_level}")
        if self.intervention_week is not None and self.intervention_week < 1:
            raise ItsaError(f"intervention week must be >= 1, got {self.intervention_week}")
        if not self.builtin_case_study and self.data_path is None:
            raise ItsaError("no input: pass --data PATH or --builtin-case-study")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", metavar="PATH", help="input CSV (week column first)")
    parser.add_argument(
        "--builtin-case-study",
        action="store_true",
        help="use the packaged 114-week OR-holds dataset",
    )
    parser.add_argument("--outcome", metavar="NAME", help="outcome column (default: second column)")
    parser.add_argument("--intervention-week", type=int, metavar="N")
    parser.add_argument("--lag", type=int, default=None, metavar="N", help="weeks before the intervention takes effect")
    parser.add_argument("--confounders", metavar="A,B,C", help="comma-separated covariate names")
    parser.add_argument("--arx-max-order", type=int, default=None, metavar="P")
    parser.add_argument("--ci-level", type=float, default=None)
    parser.add_argument("--format", choices=["table", "json", "csv"], default=None)
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags take precedence")


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    file_values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ItsaError(f"config file {args.config} must contain a JSON object")

    def pick(flag_value, key, default):
        if flag_value not in (None, False, ()):
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    confounders = pick(args.confounders, "confounders", "")
    if isinstance(confounders, str):
        confounders = tuple(c.strip() for c in confounders.split(",") if c.strip())
    else:
        confounders = tuple(confounders)

    config = AnalysisConfig(
        data_path=pick(args.data, "data_path", None),
        builtin_case_study=bool(pick(args.builtin_case_study, "builtin_case_study", False)),
        outcome_column=pick(args.outcome, "outcome_column", None),
        intervention_week=pick(args.intervention_week, "intervention_week", None),
        lag=int(pick(args.lag, "lag", 0)),
        confounders=confounders,
        arx_max_order=int(pick(args.arx_max_order, "arx_max_order", 3)),
        ci_level=float(pick(args.ci_level, "ci_level", 0.95)),
        output_format=pick(args.format, "output_format", "table"),
    )
    config.validate()
    return config


def _load_dataset(config: AnalysisConfig) -> dataset_mod.TimeSeriesDataset:
    if config.builtin_case_study:
        ds = dataset_mod.load_case_study()
    else:
        with open(config.data_path, encoding="utf-8") as fh:
            ds = dataset_mod.parse_csv(fh, intervention_week=config.intervention_week)
    if config.outcome_column:
        ds = ds.with_outcome(config.outcome_column)
    return ds


def _build_case_design(config: AnalysisConfig) -> design_mod.DesignMatrix:
    ds = _load_dataset(config)
    if config.intervention_week is None:
        raise ItsaError("this command needs --intervention-week")
    spec = design_mod.InterventionSpec(config.intervention_week, config.lag)
    design = design_mod.build_design(ds, spec, list(config.confounders))
    after = int(design.column(design_mod.INTERVENTION).sum())
    if min(after, design.n - after) < 2:  # else time_after duplicates another column
        raise ItsaError(
            f"intervention week {spec.changepoint_week} with lag {spec.lag_weeks} puts the "
            f"changepoint at week {spec.effective_week}, leaving {design.n - after} weeks "
            f"before it and {after} from it on; each side needs at least 2"
        )
    return design


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2, sort_keys=False)
    out.write("\n")


def _fmt(value: float, precision: int = COEF_PRECISION) -> str:
    return f"{value:.{precision}f}"


def _coefficient_table(fit: ols_mod.OlsFit) -> str:
    header = f"{'term':<16}{'coef':>12}{'se':>12}{'t':>10}{'p':>9}"
    lines = [header, "-" * len(header)]
    for name in fit.column_names:
        lines.append(
            f"{name:<16}"
            f"{_fmt(fit.coefficients[name]):>12}"
            f"{_fmt(fit.standard_errors[name]):>12}"
            f"{_fmt(fit.t_stats[name]):>10}"
            f"{_fmt(fit.p_values[name], P_PRECISION):>9}"
        )
    lines.append(f"n={fit.n}  k={fit.k}  rss={_fmt(fit.rss)}  deviance={_fmt(fit.deviance)}")
    return "\n".join(lines)


def _cmd_data(config: AnalysisConfig, args, out) -> int:
    ds = _load_dataset(config)
    if args.data_command == "validate":
        out.write(f"ok: {len(ds)} records, outcome {ds.outcome_name!r}, "
                  f"covariates {list(ds.covariate_names)}\n")
        return 0
    split = args.split_week if args.split_week is not None else config.intervention_week
    if split is None:
        raise ItsaError("data summary needs --split-week or --intervention-week")
    s = dataset_mod.summarize(ds, split)
    if config.output_format == "json":
        _emit_json(
            {
                "split_week": s.split_week,
                "overall": {"mean": s.overall_mean, "min": s.overall_min, "max": s.overall_max},
                "before": {"mean": s.before_mean, "min": s.before_min, "max": s.before_max,
                           "n": s.n_before},
                "after": {"mean": s.after_mean, "min": s.after_min, "max": s.after_max,
                          "n": s.n_after},
            },
            out,
        )
    else:
        out.write(f"segment summary of {ds.outcome_name!r} split at week {s.split_week}\n")
        out.write(f"{'segment':<10}{'n':>5}{'mean':>10}{'min':>8}{'max':>8}\n")
        for label, mean, lo, hi, n in [
            ("overall", s.overall_mean, s.overall_min, s.overall_max, s.n_before + s.n_after),
            ("before", s.before_mean, s.before_min, s.before_max, s.n_before),
            ("after", s.after_mean, s.after_min, s.after_max, s.n_after),
        ]:
            out.write(f"{label:<10}{n:>5}{mean:>10.2f}{lo:>8.1f}{hi:>8.1f}\n")
    return 0


def _cmd_fit(config: AnalysisConfig, out) -> int:
    design = _build_case_design(config)
    fit = ols_mod.fit_ols(design)
    if config.output_format == "json":
        _emit_json(fit.to_json_dict(), out)
    else:
        out.write(_coefficient_table(fit) + "\n")
    return 0


def _cmd_diagnose(config: AnalysisConfig, out) -> int:
    design = _build_case_design(config)
    fit = ols_mod.fit_ols(design)
    d = diag_mod.durbin_watson(fit.residuals)
    dw = diag_mod.dw_p_value(d, design)
    max_lag = min(20, design.n // 2 - 1)
    residual_acf = diag_mod.acf(fit.residuals, max_lag)
    lb = diag_mod.ljung_box(fit.residuals, min(10, max_lag), fitted_params=0)
    payload = {
        "dw": {"stat": dw.statistic, "p": dw.p_value},
        "acf": list(residual_acf.correlations),
        "acf_band": residual_acf.band,
        "ljung_box": {"q": lb.statistic, "df": lb.df, "p": lb.p_value},
    }
    if config.output_format == "json":
        _emit_json(payload, out)
    else:
        out.write(f"Durbin-Watson  stat={_fmt(dw.statistic)}  p={_fmt(dw.p_value, P_PRECISION)}\n")
        out.write(f"Ljung-Box      q={_fmt(lb.statistic)}  df={lb.df}  "
                  f"p={_fmt(lb.p_value, P_PRECISION)}\n")
        out.write(f"ACF (white-noise band +-{residual_acf.band:.3f})\n")
        for lag, r in zip(residual_acf.lags, residual_acf.correlations):
            flag = " *" if abs(r) > residual_acf.band else ""
            out.write(f"  lag {lag:>2}  {r:>8.3f}{flag}\n")
    return 0


def _candidate_sets(confounders: tuple[str, ...]) -> list[tuple[str, ...]]:
    candidates = [("intercept",)]
    for name in confounders:
        candidates.append(("intercept", name))
    if len(confounders) > 1:
        candidates.append(("intercept", *confounders))
    return candidates


def _select_and_fit_level_change(config: AnalysisConfig, design: design_mod.DesignMatrix):
    """Select the ARX baseline, then refit it with the intervention level change added."""
    selection = arx_mod.select_baseline(
        design, config.arx_max_order, _candidate_sets(config.confounders)
    )
    if selection.best is None:
        raise ItsaError(selection.message)
    baseline = selection.best
    level_spec = arx_mod.ArxSpec(
        order=baseline.order,
        exogenous_columns=baseline.exogenous_columns + ("intervention",),
        label="full (level change)",
    )
    return selection, arx_mod.fit_arx(design, level_spec)


def _cmd_arx(config: AnalysisConfig, out) -> int:
    design = _build_case_design(config)
    selection, full = _select_and_fit_level_change(config, design)
    baseline = selection.best
    level_test = arx_mod.likelihood_ratio_test(baseline, full)
    trend_spec = arx_mod.ArxSpec(
        order=baseline.order,
        exogenous_columns=full.exogenous_columns + ("time_after",),
        label="full (level + trend change)",
    )
    with_trend = arx_mod.fit_arx(design, trend_spec)
    trend_test = arx_mod.likelihood_ratio_test(full, with_trend)

    payload = {
        "baseline": baseline.to_json_dict(),
        "full": full.to_json_dict(),
        "level_test": level_test.to_json_dict(),
        "trend_test": trend_test.to_json_dict(),
        "selection_trace": [
            {
                "label": rec.label,
                "deviance": rec.deviance,
                "bic": rec.bic,
                "whiteness_p": rec.whiteness_p,
                "admissible": rec.admissible,
            }
            for rec in selection.trace
        ],
    }
    if config.output_format == "json":
        _emit_json(payload, out)
        return 0

    out.write(f"baseline: ARX({baseline.order}) {'+'.join(baseline.exogenous_columns)}  "
              f"deviance={_fmt(baseline.deviance)}\n")
    out.write(f"full:     ARX({full.order}) {'+'.join(full.exogenous_columns)}  "
              f"deviance={_fmt(full.deviance)}\n")
    out.write(f"{'term':<16}{'coef':>12}{'se':>12}\n")
    for name in full.exogenous_columns:
        out.write(f"{name:<16}{_fmt(full.beta[name]):>12}"
                  f"{_fmt(full.standard_errors[name]):>12}\n")
    for j, ph in enumerate(full.phi, start=1):
        out.write(f"{'phi' + str(j):<16}{_fmt(ph):>12}"
                  f"{_fmt(full.standard_errors[f'phi{j}']):>12}\n")
    out.write(
        f"level change:  lambda={_fmt(level_test.lambda_)}  df={level_test.df}  "
        f"critical={_fmt(level_test.critical_value)}  "
        f"p={_fmt(level_test.p_value, P_PRECISION)}  "
        f"{'significant' if level_test.significant else 'not significant'}\n"
    )
    out.write(
        f"trend change:  lambda={_fmt(trend_test.lambda_)}  df={trend_test.df}  "
        f"critical={_fmt(trend_test.critical_value)}  "
        f"p={_fmt(trend_test.p_value, P_PRECISION)}  "
        f"{'significant' if trend_test.significant else 'not significant'}\n"
    )
    return 0


def _cmd_effect(config: AnalysisConfig, args, out) -> int:
    design = _build_case_design(config)
    fit = ols_mod.fit_ols(design)
    if args.week is not None:
        estimate = effect_mod.effect_at(fit, design, args.week, config.ci_level)
        if config.output_format == "json":
            _emit_json(estimate.to_json_dict(), out)
        else:
            rel = ("undefined" if estimate.relative_change is None
                   else f"{estimate.relative_change:.1f}%")
            ci = ("" if estimate.ci_lower is None
                  else f"  {int(config.ci_level * 100)}% CI "
                       f"({estimate.ci_lower:.1f}%, {estimate.ci_upper:.1f}%)")
            out.write(
                f"week {estimate.week}: observed={_fmt(estimate.observed)} "
                f"fitted={_fmt(estimate.fitted)} "
                f"counterfactual={_fmt(estimate.counterfactual)}\n"
                f"absolute change={_fmt(estimate.absolute_change)}  "
                f"relative change={rel}{ci}\n"
            )
        return 0

    series = effect_mod.effect_series(fit, design, config.ci_level)
    if config.output_format == "json":
        _emit_json(series.to_json_dict(), out)
    elif config.output_format == "csv":
        out.write("week,observed,fitted,counterfactual,absolute_change,relative_change\n")
        for e in series.estimates:
            rel = "" if e.relative_change is None else f"{e.relative_change:.6g}"
            out.write(f"{e.week},{e.observed:g},{e.fitted:.6g},{e.counterfactual:.6g},"
                      f"{e.absolute_change:.6g},{rel}\n")
    else:
        mean_rel = ("undefined" if series.mean_relative_change is None
                    else f"{series.mean_relative_change:.1f}%")
        stab = ("not reached" if series.weeks_to_stabilization is None
                else f"week {series.stabilization_week} "
                     f"({series.weeks_to_stabilization} weeks in)")
        out.write(f"post-intervention weeks: {len(series.estimates)}\n")
        out.write(f"mean relative change: {mean_rel}\n")
        out.write(f"stabilized: {stab}\n")
    return 0


def _cmd_export(config: AnalysisConfig, args, out_path: str) -> int:
    design = _build_case_design(config)
    fit = ols_mod.fit_ols(design)
    fitted = ols_mod.predict(fit, design)
    counterfactual = effect_mod.counterfactual_series(fit, design)
    arx_fitted = None
    if args.arx:
        _, full = _select_and_fit_level_change(config, design)
        arx_fitted = arx_mod.predict_arx(full, design)

    with open(out_path, "w", encoding="utf-8") as fh:
        header = "week,observed,fitted,counterfactual"
        if arx_fitted is not None:
            header += ",arx_fitted"
        fh.write(header + "\n")
        for i, week in enumerate(design.weeks):
            line = (f"{int(week)},{design.outcome[i]:g},"
                    f"{fitted[i]:.6g},{counterfactual[i]:.6g}")
            if arx_fitted is not None:
                cell = "" if np.isnan(arx_fitted[i]) else f"{arx_fitted[i]:.6g}"
                line += f",{cell}"
            fh.write(line + "\n")
    sys.stdout.write(f"wrote {design.n} rows to {out_path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itsa",
        description="Interrupted time series analysis of intervention effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="validate or summarize a dataset")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    validate = data_sub.add_parser("validate", help="parse and check invariants")
    _add_common_arguments(validate)
    summary = data_sub.add_parser("summary", help="segment means before/after a split week")
    _add_common_arguments(summary)
    summary.add_argument("--split-week", type=int, metavar="N")

    fit = sub.add_parser("fit", help="segmented regression coefficient table")
    _add_common_arguments(fit)

    diagnose = sub.add_parser("diagnose", help="Durbin-Watson, ACF, Ljung-Box on residuals")
    _add_common_arguments(diagnose)

    arx = sub.add_parser("arx", help="ARX baseline selection and likelihood-ratio tests")
    _add_common_arguments(arx)

    effect = sub.add_parser("effect", help="counterfactual effect estimates")
    _add_common_arguments(effect)
    effect.add_argument("--week", type=int, metavar="N", help="single-week report")

    export = sub.add_parser("export", help="plot-ready observed/fitted/counterfactual CSV")
    _add_common_arguments(export)
    export.add_argument("--output", required=True, metavar="PATH")
    export.add_argument("--arx", action="store_true", help="include one-step ARX predictions")
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "data":
            return _cmd_data(config, args, out)
        if args.command == "fit":
            return _cmd_fit(config, out)
        if args.command == "diagnose":
            return _cmd_diagnose(config, out)
        if args.command == "arx":
            return _cmd_arx(config, out)
        if args.command == "effect":
            return _cmd_effect(config, args, out)
        if args.command == "export":
            return _cmd_export(config, args, args.output)
        parser.error(f"unknown command {args.command!r}")
    except ItsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
