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
import functools
import json
import math
import sys
import warnings

from . import arx as arx_mod
from . import dataset as dataset_mod
from . import design as design_mod
from . import diagnostics as diag_mod
from . import effect as effect_mod
from . import ols as ols_mod
from .errors import ItsaError

COEF_PRECISION = 4
P_PRECISION = 3


def _config_words(path: str) -> list[str]:
    """The --config file's settings as --flag=value words, each checked by parsing it alone."""
    try:
        values = _read(path, json.load)
    except json.JSONDecodeError as exc:
        raise ItsaError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ItsaError(f"config file {path} must contain a JSON object")

    common, flags = _common_flags()
    words = []
    for key, value in values.items():
        if key not in flags:
            raise ItsaError(f"config file {path}: {key} = {value!r} is not a setting; "
                            f"the settings are {', '.join(flags)}")
        flag = flags[key]
        option = flag.option_strings[0]
        if key == "confounders" and isinstance(value, list) and all(type(v) is str for v in value):
            value = ",".join(value)
        if flag.nargs == 0:  # a switch, such as --builtin-case-study
            takes, word = isinstance(value, bool), [option] if value is True else []
        else:  # a string, or a number for a flag with a type
            takes = type(value) in ((str, int, float) if flag.type else (str,))
            word = [f"{option}={value}"]
        try:
            if not takes:
                raise argparse.ArgumentError(flag, "not a JSON type this flag takes")
            common.parse_args(word)
        except argparse.ArgumentError:
            raise ItsaError(f"config file {path}: {key} = {value!r} is not a valid "
                            f"{option} value") from None
        words += word
    return words


def _check_settings(args: argparse.Namespace) -> None:
    args.confounders = tuple(c.strip() for c in args.confounders.split(",") if c.strip())
    if not 0.0 < args.ci_level < 1.0:
        raise ItsaError(f"ci_level must lie in (0, 1), got {args.ci_level}")
    if args.intervention_week is not None and args.intervention_week < 1:
        raise ItsaError(f"intervention week must be >= 1, got {args.intervention_week}")
    if not args.builtin_case_study and args.data_path is None:
        raise ItsaError("no input: pass --data PATH or --builtin-case-study")


def _read(path: str, read):
    """read(fh) on the UTF-8 text file at `path`; a byte that is not UTF-8 is an ItsaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read(fh)
        except UnicodeDecodeError as exc:
            raise ItsaError(f"{path} is not UTF-8 text: {exc}") from None


def _load_dataset(args: argparse.Namespace) -> dataset_mod.TimeSeriesDataset:
    if args.builtin_case_study:
        ds = dataset_mod.load_case_study()
    else:
        ds = _read(args.data_path, functools.partial(dataset_mod.parse_csv,
                                                     intervention_week=args.intervention_week))
    if args.outcome_column:
        ds = ds.with_outcome(args.outcome_column)
    return ds


def _build_case_design(args: argparse.Namespace) -> design_mod.DesignMatrix:
    ds = _load_dataset(args)
    if args.intervention_week is None:
        raise ItsaError("this command needs --intervention-week")
    spec = design_mod.InterventionSpec(args.intervention_week, args.lag)
    design = design_mod.build_design(ds, spec, list(args.confounders))
    after = int(design.column(design_mod.INTERVENTION).sum())
    if min(after, design.n - after) < 2:  # else time_after duplicates another column
        raise ItsaError(
            f"intervention week {spec.changepoint_week} with lag {spec.lag_weeks} puts the "
            f"changepoint at week {spec.effective_week}, leaving {design.n - after} weeks "
            f"before it and {after} from it on; each side needs at least 2"
        )
    return design


def _fmt(value: float, precision: int = COEF_PRECISION) -> str:
    form = "3e" if abs(value) >= 1e15 else f"{precision}f"  # .3e fits a 12-wide cell at any exponent
    return f"{value:.{form}}" if math.isfinite(value) else "undefined"


def _number(value: float) -> float | None:
    """The value, or None where it is undefined (NaN or infinite), which JSON cannot write."""
    return value if math.isfinite(value) else None


def _csv(weeks, columns: dict) -> str:
    """CSV text: a week column, then each column at .6g, with NaN as a blank cell."""
    lines = [",".join(["week", *columns])]
    for week, *row in zip(weeks, *columns.values()):
        cells = ["" if math.isnan(v) else f"{v:.6g}" for v in row]
        lines.append(",".join([str(int(week)), *cells]))
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> tuple[None, str]:
    ds = _load_dataset(args)
    return None, (f"ok: {len(ds)} records, outcome {ds.outcome_name!r}, "
                  f"covariates {list(ds.covariate_names)}\n")


def _cmd_summary(args) -> tuple[dict, str]:
    ds = _load_dataset(args)
    split = args.split_week if args.split_week is not None else args.intervention_week
    if split is None:
        raise ItsaError("data summary needs --split-week or --intervention-week")
    s = dataset_mod.summarize(ds, split)
    payload = {"split_week": s.split_week}
    lines = [
        f"segment summary of {ds.outcome_name!r} split at week {s.split_week}",
        f"{'segment':<10}{'n':>5}{'mean':>10}{'min':>8}{'max':>8}",
    ]
    for label, n in (("overall", len(ds)), ("before", s.n_before), ("after", s.n_after)):
        seg = {stat: getattr(s, f"{label}_{stat}") for stat in ("mean", "min", "max")}
        payload[label] = seg if label == "overall" else {**seg, "n": n}
        lines.append(f"{label:<10}{' ' + str(n):>5}{' ' + _fmt(seg['mean'], 2):>10}"
                     f"{' ' + _fmt(seg['min'], 1):>8}{' ' + _fmt(seg['max'], 1):>8}")
    return payload, "\n".join(lines) + "\n"


def _cmd_fit(args) -> tuple[dict, str]:
    fit = ols_mod.fit_ols(_build_case_design(args))
    header = f"{'term':<16}{'coef':>12}{'se':>12}{'t':>10}{'p':>9}"
    lines = [header, "-" * len(header)]
    terms = {}
    p_values = fit.p_values  # computed on each read
    for name in fit.column_names:
        coef, se, t, p = (fit.coefficients[name], fit.standard_errors[name],
                          fit.t_stats[name], p_values[name])
        terms[name] = {"estimate": coef, "se": se, "t": _number(t), "p": _number(p)}
        lines.append(f"{name:<16}{' ' + _fmt(coef):>12}{' ' + _fmt(se):>12}{' ' + _fmt(t):>10}"
                     f"{' ' + _fmt(p, P_PRECISION):>9}")
    lines.append(f"n={fit.n}  k={fit.k}  rss={_fmt(fit.rss)}  deviance={_fmt(fit.deviance)}")
    payload = {"coefficients": terms, "rss": fit.rss, "deviance": _number(fit.deviance),
               "n": fit.n, "k": fit.k}
    return payload, "\n".join(lines) + "\n"


def _cmd_diagnose(args) -> tuple[dict, str]:
    design = _build_case_design(args)
    fit = ols_mod.fit_ols(design)
    if fit.deviance == -math.inf:
        raise ItsaError("the fit is exact (RSS = 0 to the rounding of y), so its residuals are "
                        "rounding error and there is nothing to diagnose")
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
    lines = [
        f"Durbin-Watson  stat={_fmt(dw.statistic)}  p={_fmt(dw.p_value, P_PRECISION)}",
        f"Ljung-Box      q={_fmt(lb.statistic)}  df={lb.df}  p={_fmt(lb.p_value, P_PRECISION)}",
        f"ACF (white-noise band +-{_fmt(residual_acf.band, 3)})",
    ]
    for lag, r in enumerate(residual_acf.correlations, start=1):
        flag = " *" if abs(r) > residual_acf.band else ""
        lines.append(f"  lag {lag:>2}  {_fmt(r, 3):>8}{flag}")
    return payload, "\n".join(lines) + "\n"


def _candidate_sets(confounders: tuple[str, ...]) -> list[tuple[str, ...]]:
    candidates = [("intercept",), *(("intercept", name) for name in confounders)]
    if len(confounders) > 1:
        candidates.append(("intercept", *confounders))
    return candidates


def _select_and_extend(args: argparse.Namespace, design: design_mod.DesignMatrix, columns: tuple):
    """Select the ARX baseline, then fit it with columns[:1], columns[:2], ... added."""
    selection = arx_mod.select_baseline(
        design, args.arx_max_order, _candidate_sets(args.confounders)
    )
    if selection.best is None:
        raise ItsaError("no candidate passed the residual whiteness check")
    return selection, arx_mod.fit_nested(design, selection.best, columns)


def _arx_json(fit: arx_mod.ArxFit) -> dict:
    return {"order": fit.order, "phi": list(fit.phi), "beta": dict(fit.coefficients),
            "se": {name: _number(se) for name, se in fit.standard_errors.items()},
            "sigma2": fit.sigma2, "deviance": fit.deviance, "n_effective": fit.n - fit.conditioning,
            "converged": fit.converged}


def _cmd_arx(args) -> tuple[dict, str]:
    design = _build_case_design(args)
    selection, (full, with_trend) = _select_and_extend(args, design, design.intervention_columns)
    level_test = arx_mod.likelihood_ratio_test(selection.best, full)
    trend_test = arx_mod.likelihood_ratio_test(full, with_trend)

    payload = {"baseline": _arx_json(selection.best), "full": _arx_json(full)}
    lines = [
        f"{role + ':':<10}{fit.label}  deviance={_fmt(fit.deviance)}"
        for role, fit in (("baseline", selection.best), ("full", full))
    ]
    lines.append(f"{'term':<16}{'coef':>12}{'se':>12}")
    estimates = [*full.coefficients.values(), *full.phi]  # in the order of the se keys
    for (name, se), estimate in zip(full.standard_errors.items(), estimates):
        lines.append(f"{name:<16}{' ' + _fmt(estimate):>12}{' ' + _fmt(se):>12}")
    for change, test in (("level", level_test), ("trend", trend_test)):
        payload[f"{change}_test"] = {"lambda": test.lambda_, "df": test.df,
                                     "critical": test.critical_value, "p": test.p_value,
                                     "significant": test.significant}
        lines.append(
            f"{change} change:  lambda={_fmt(test.lambda_)}  df={test.df}  "
            f"critical={_fmt(test.critical_value)}  "
            f"p={_fmt(test.p_value, P_PRECISION)}  "
            f"{'significant' if test.significant else 'not significant'}"
        )
    payload["selection_trace"] = [
        {"label": rec.fit.label, "deviance": rec.fit.deviance, "bic": rec.bic,
         "whiteness_p": _number(rec.whiteness_p), "admissible": rec.admissible}
        for rec in selection.trace
    ]
    return payload, "\n".join(lines) + "\n"


def _effect_json(e: effect_mod.EffectEstimate) -> dict:
    return {"week": e.week, "observed": e.observed, "fitted": e.fitted,
            "counterfactual": e.counterfactual, "absolute_change": e.absolute_change,
            "relative_change": _number(e.relative_change), "ci_level": e.ci_level,
            "ci": [_number(e.ci_lower), _number(e.ci_upper)], "method": e.method}


def _cmd_effect(args) -> tuple[dict | None, str]:
    design = _build_case_design(args)
    fit = ols_mod.fit_ols(design)
    if args.week is not None:
        estimate = effect_mod.effect_at(fit, design, args.week, args.ci_level)
        rel = ("undefined" if math.isnan(estimate.relative_change)
               else f"{estimate.relative_change:.1f}%")
        ci = ("" if math.isnan(estimate.ci_lower)
              else f"  {args.ci_level * 100:g}% CI "
                   f"({estimate.ci_lower:.1f}%, {estimate.ci_upper:.1f}%)")
        return _effect_json(estimate), (
            f"week {estimate.week}: observed={_fmt(estimate.observed)} "
            f"fitted={_fmt(estimate.fitted)} "
            f"counterfactual={_fmt(estimate.counterfactual)}\n"
            f"absolute change={_fmt(estimate.absolute_change)}  "
            f"relative change={rel}{ci}\n"
        )

    series = effect_mod.effect_series(fit, design, args.ci_level)
    if args.output_format == "csv":
        names = ("observed", "fitted", "counterfactual", "absolute_change", "relative_change")
        return None, _csv([e.week for e in series.estimates],
                          {name: [getattr(e, name) for e in series.estimates] for name in names})
    mean_rel = ("undefined" if math.isnan(series.mean_relative_change)
                else f"{series.mean_relative_change:.1f}%")
    stab = ("not reached" if series.weeks_to_stabilization is None
            else f"week {series.stabilization_week} ({series.weeks_to_stabilization} weeks in)")
    payload = {"estimates": [_effect_json(e) for e in series.estimates],
               "mean_relative_change": _number(series.mean_relative_change),
               "stabilization_week": series.stabilization_week,
               "weeks_to_stabilization": series.weeks_to_stabilization}
    return payload, (f"post-intervention weeks: {len(series.estimates)}\n"
                     f"mean relative change: {mean_rel}\n"
                     f"stabilized: {stab}\n")


def _cmd_export(args) -> tuple[None, str]:
    design = _build_case_design(args)
    fit = ols_mod.fit_ols(design)
    columns = {
        "observed": design.outcome,
        "fitted": fit.fitted,
        "counterfactual": effect_mod.counterfactual_series(fit, design),
    }
    if args.arx:
        _, (full,) = _select_and_extend(args, design, (design_mod.INTERVENTION,))
        columns["arx_fitted"] = arx_mod.predict_arx(full)  # NaN: no lagged errors yet

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(_csv(design.weeks, columns))
    # The confirmation goes to the console: `out` carries a command's result, which is the file.
    sys.stdout.write(f"wrote {design.n} rows to {args.output}\n")
    return None, ""


@functools.cache
def _common_flags() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The flags every subcommand takes, keyed by their dests, which are the config-file keys."""
    common = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    flag = common.add_argument
    flags = [
        flag("--data", dest="data_path", metavar="PATH", help="input CSV (week column first)"),
        flag("--builtin-case-study", action="store_true",
             help="use the packaged 114-week OR-holds dataset"),
        flag("--outcome", dest="outcome_column", metavar="NAME",
             help="outcome column (default: second column)"),
        flag("--intervention-week", type=int, metavar="N"),
        flag("--lag", type=int, default=0, metavar="N",
             help="weeks before the intervention takes effect"),
        flag("--confounders", default="", metavar="A,B,C", help="comma-separated covariate names"),
        flag("--arx-max-order", type=int, default=3, metavar="P"),
        flag("--ci-level", type=float, default=0.95),
        flag("--format", dest="output_format", choices=["table", "json", "csv"], default="table"),
    ]
    flag("--config", metavar="PATH", help="JSON config file; flags take precedence")
    return common, {action.dest: action for action in flags}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing does not change it."""
    common, _ = _common_flags()

    def add_command(subparsers, name: str, handler, help_text: str) -> argparse.ArgumentParser:
        command = subparsers.add_parser(name, parents=[common], help=help_text)
        command.set_defaults(handler=handler)
        return command

    parser = argparse.ArgumentParser(
        prog="itsa",
        description="Interrupted time series analysis of intervention effects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = sub.add_parser("data", help="validate or summarize a dataset")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    add_command(data_sub, "validate", _cmd_validate, "parse and check invariants")
    summary = add_command(data_sub, "summary", _cmd_summary,
                          "segment means before/after a split week")
    summary.add_argument("--split-week", type=int, metavar="N")
    add_command(sub, "fit", _cmd_fit, "segmented regression coefficient table")
    add_command(sub, "diagnose", _cmd_diagnose, "Durbin-Watson, ACF, Ljung-Box on residuals")
    add_command(sub, "arx", _cmd_arx, "ARX baseline selection and likelihood-ratio tests")
    effect = add_command(sub, "effect", _cmd_effect, "counterfactual effect estimates")
    effect.add_argument("--week", type=int, metavar="N", help="single-week report")
    export = add_command(sub, "export", _cmd_export,
                         "plot-ready observed/fitted/counterfactual CSV")
    export.add_argument("--output", required=True, metavar="PATH")
    export.add_argument("--arx", action="store_true", help="include one-step ARX predictions")
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    """Run one subcommand; write its JSON payload, or else its text, to `out`."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    # Each warning the filters let through prints as one line, like an error; the filters stay.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.config:
                # The file's words go before the command line's flags, so that those win.
                commands = 2 if args.command == "data" else 1
                args = build_parser().parse_args(
                    [*argv[:commands], *_config_words(args.config), *argv[commands:]])
            _check_settings(args)
            payload, text = args.handler(args)
            if payload is not None and args.output_format == "json":
                text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
            out.write(text)
        except (ItsaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def main() -> None:
    sys.exit(run())
