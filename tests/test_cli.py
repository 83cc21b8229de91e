import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itsa import InterventionSpec, build_design, load_case_study, select_baseline
from itsa.cli import _candidate_sets, _fmt, run

CASE_STUDY_FLAGS = ["--builtin-case-study", "--intervention-week", "53"]
UNKNOWN_KEY = {"confounder": "occupancy"}


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def scaled_series(path, y_scale, c_scale):
    """Write 60 weeks of y = 10 + N(0, 1) and c = 1 + N(0, 1), each scaled (default_rng(0)), to path."""
    rng = np.random.default_rng(0)
    y, c = y_scale * (10.0 + rng.normal(size=60)), c_scale * (1.0 + rng.normal(size=60))
    path.write_text("week,y,c\n" + "".join(
        f"{w},{v!r},{u!r}\n" for w, v, u in zip(range(1, 61), y.tolist(), c.tolist())))
    return path


def strict_json(text):
    """Parse JSON, refusing the NaN, Infinity and -Infinity tokens that are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestDataCommands:
    def test_validate_builtin(self):
        code, text = invoke(["data", "validate", "--builtin-case-study"])
        assert code == 0
        assert "114 records" in text
        assert "'or_holds'" in text

    def test_validate_csv_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("week,y\n1,5\n2,6\n3,7\n")
        code, text = invoke(["data", "validate", "--data", str(path)])
        assert code == 0
        assert "3 records" in text

    def test_validate_bad_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("week,y\n1,5\n3,7\n4,8\n")  # missing week 2
        code, _ = invoke(["data", "validate", "--data", str(path)])
        assert code == 1
        assert "week 2" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        code, _ = invoke(["data", "validate", "--data", "/no/such/file.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, content", [
        ("--data", b"week,y\n1,5\n2,\xff\n3,7\n"),
        ("--config", b'{"lag": "\xff"}'),
    ], ids=["data", "config"])
    def test_undecodable_file_exits_1(self, tmp_path, capsys, flag, content):
        path = tmp_path / "bad"
        path.write_bytes(content)
        source = ["--builtin-case-study"] if flag == "--config" else []
        code, _ = invoke(["data", "validate", *source, flag, str(path)])
        assert code == 1
        assert f"error: {path} is not UTF-8 text" in capsys.readouterr().err

    def test_csv_fault_exits_1(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text('week,y\n1,"' + "1" * 131_073 + '"\n2,2\n3,3\n')
        code, _ = invoke(["data", "validate", "--data", str(path)])
        assert code == 1
        assert capsys.readouterr().err == "error: line 2: field larger than field limit (131072)\n"

    def test_no_input_exits_1(self, capsys):
        code, _ = invoke(["data", "validate"])
        assert code == 1
        assert "no input" in capsys.readouterr().err

    def test_summary_table(self):
        code, text = invoke(["data", "summary", *CASE_STUDY_FLAGS])
        assert code == 0
        assert "split at week 53" in text
        assert "before" in text and "after" in text

    def test_summary_json_values(self):
        code, text = invoke(["data", "summary", *CASE_STUDY_FLAGS, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["before"]["n"] == 52
        assert payload["after"]["n"] == 62
        assert payload["overall"]["mean"] == pytest.approx(22.6, abs=0.2)
        assert payload["before"]["mean"] == pytest.approx(31.9, abs=0.2)

    def test_summary_cells_never_run_together(self, tmp_path):
        """At a level of 2.5e7 the mean, min and max are wider than their cells; a space parts them."""
        rng = np.random.default_rng(1)
        path = tmp_path / "high.csv"
        path.write_text("week,y\n" + "".join(f"{w},{2.5e7 + 1e4 * rng.normal()!r}\n" for w in range(1, 61)))
        code, text = invoke(["data", "summary", "--data", str(path), "--split-week", "31"])
        assert code == 0
        header, *rows = text.splitlines()[1:]
        assert [len(row.split()) for row in rows] == [len(header.split())] * 3

    def test_summary_requires_split(self, capsys):
        code, _ = invoke(["data", "summary", "--builtin-case-study"])
        assert code == 1
        assert "split-week" in capsys.readouterr().err


class TestFitCommand:
    def test_json_has_all_seven_terms(self):
        code, text = invoke([
            "fit", *CASE_STUDY_FLAGS,
            "--confounders", "admissions,discharges,occupancy",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        terms = payload["coefficients"]
        assert set(terms) == {
            "intercept", "time", "intervention", "time_after",
            "admissions", "discharges", "occupancy",
        }
        assert terms["intervention"]["estimate"] == pytest.approx(-12.01, abs=0.01)
        assert terms["occupancy"]["p"] < 0.001
        assert payload["n"] == 114

    def test_table_output(self):
        code, text = invoke(["fit", *CASE_STUDY_FLAGS])
        assert code == 0
        assert "term" in text and "coef" in text
        assert "intervention" in text
        assert "n=114" in text

    def test_collinear_confounder_exits_1(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        for flat in ("1", "3.8e-242", "5e-324"):  # tiny, and below the normal floats
            rows = "\n".join(f"{w},{w % 5},{flat}" for w in range(1, 31))
            path.write_text("week,y,flat\n" + rows + "\n")
            code, _ = invoke([
                "fit", "--data", str(path), "--intervention-week", "15",
                "--confounders", "flat",
            ])
            assert code == 1
            assert "rank deficient" in capsys.readouterr().err

    def test_collinear_arx_candidate_exits_1(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{w},{w % 5 + 0.1 * (w % 3)},1" for w in range(1, 61))
        path.write_text("week,y,flat\n" + rows + "\n")
        code, _ = invoke(["arx", "--data", str(path), "--intervention-week", "30", "--confounders", "flat"])
        assert code == 1
        assert "rank deficient: column 'flat'" in capsys.readouterr().err

    def test_large_level_series_has_finite_deviance(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "level.csv"
        rows = "".join(f"{w},{1e6 + w + rng.normal(0.0, 0.5)!r}\n" for w in range(1, 41))
        path.write_text("week,y\n" + rows)
        argv = ["fit", "--data", str(path), "--intervention-week", "20"]
        code, text = invoke([*argv, "--format", "json"])
        assert code == 0
        payload = strict_json(text)
        n, rss = payload["n"], payload["rss"]
        direct = n * (math.log(2 * math.pi * rss / n) + 1)
        assert payload["deviance"] == pytest.approx(direct, rel=1e-12)
        code, text = invoke(argv)
        assert code == 0
        assert f"deviance={direct:.4f}" in text

    @pytest.mark.parametrize(
        "outcome",
        [lambda w: 3 + 2 * w, lambda w: 0, lambda w: 1 + w + 3 * (w >= 10),
         lambda w: 1e-161 * ((7 * w) % 5 - 2), lambda w: 6.4e-277, lambda w: 2.2e-309],
        ids=["line", "zero", "line-and-step", "squares-below-normal", "tiny", "below-normal"],
    )
    def test_exact_fit_json_is_strict(self, tmp_path, outcome):
        """An exact fit has no deviance, t or p, whether its RSS is 0 or rounding error.

        The squares of residuals of 1e-161 are below the smallest normal float, so
        their RSS is rounding error too, and their standard errors underflow to 0.
        The effects of a tiny constant divide by a tiny counterfactual.
        """
        path = tmp_path / "exact.csv"
        path.write_text("week,y\n" + "".join(f"{w},{outcome(w)}\n" for w in range(1, 21)))
        flags = ["--data", str(path), "--intervention-week", "10", "--format", "json"]
        code, text = invoke(["fit", *flags])
        assert code == 0
        payload = strict_json(text)
        assert payload["deviance"] is None
        for term in payload["coefficients"].values():
            assert term["t"] is None and term["p"] is None
        code, text = invoke(["effect", *flags])
        assert code == 0
        strict_json(text)

    def test_exact_fit_table_writes_undefined(self, tmp_path):
        """The t, p and deviance of an exact fit are undefined, and so is each of their cells."""
        path = tmp_path / "line.csv"
        path.write_text("week,y\n" + "".join(f"{w},{3 + 0.5 * w}\n" for w in range(1, 61)))
        code, text = invoke(["fit", "--data", str(path), "--intervention-week", "31"])
        assert code == 0
        assert text == (
            "term                    coef          se         t        p\n"
            "-----------------------------------------------------------\n"
            "intercept             3.0000      0.0000 undefined undefined\n"
            "time                  0.5000      0.0000 undefined undefined\n"
            "intervention          0.0000      0.0000 undefined undefined\n"
            "time_after            0.0000      0.0000 undefined undefined\n"
            "n=60  k=4  rss=0.0000  deviance=undefined\n"
        )

    def test_cells_never_run_together(self, tmp_path):
        """On a near-exact line the intercept's t is wider than its cell; a space parts it from se."""
        rng = np.random.default_rng(1)
        path = tmp_path / "line.csv"
        path.write_text("week,y\n" + "".join(
            f"{w},{3 + 0.5 * w + 1e-6 * rng.normal()!r}\n" for w in range(1, 61)))
        code, text = invoke(["fit", "--data", str(path), "--intervention-week", "31"])
        assert code == 0
        header, _, *rows, _ = text.splitlines()
        assert [len(row.split()) for row in rows] == [len(header.split())] * 4

    def test_huge_values_keep_the_table_columns(self, tmp_path):
        """At y x 1e150 the cells take exponent form: no fit row is wider than the header, and
        each data summary cell is .3e, parted from the one before it by a space."""
        path = scaled_series(tmp_path / "huge.csv", 1e150, 1.0)
        code, text = invoke(["fit", "--data", str(path), "--intervention-week", "30",
                             "--confounders", "c"])
        assert code == 0
        header, *rows = text.splitlines()
        assert all(len(row) <= len(header) for row in rows), text
        assert _fmt(-1.7976931348623157e308) == "-1.798e+308" and _fmt(1e15) == "1.000e+15"
        code, text = invoke(["data", "summary", "--data", str(path), "--split-week", "30"])
        assert code == 0
        _, _, *rows = text.splitlines()
        for row in rows:
            _, _, *cells = row.split()
            assert len(cells) == 3 and all(re.fullmatch(r"\d\.\d{3}e\+15\d", cell) for cell in cells), text

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("command", [["fit"], ["arx"], ["effect", "--week", "45"]],
                             ids=["fit", "arx", "effect"])
    def test_coefficient_that_overflows_names_its_column(self, tmp_path, capsys, command, fmt):
        """y x 1e150: one error line naming c, not the outcome, and no warning, on each series.

        On c x 1e-200 every coefficient of c overflows. On c x 10^-159.22 the OLS coefficient does
        not but its standard error does, and so does the ARX(0) coefficient on the selection's
        common window. On c = 1e-200 c0 with y = 1e150 (10 + 3 c0 + noise), the selected ARX
        baseline's coefficient overflows on its own window.
        """
        rng = np.random.default_rng(1)
        c0 = 1.0 + rng.normal(size=60)
        y = 1e150 * (10.0 + 3.0 * c0 + 0.3 * rng.normal(size=60))
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("week,y,c\n" + "".join(
            f"{w},{v!r},{u!r}\n" for w, v, u in zip(range(1, 61), y.tolist(), (1e-200 * c0).tolist())))
        series = [(scaled_series(tmp_path / "tiny.csv", 1e150, 1e-200), "coefficient"),
                  (scaled_series(tmp_path / "se.csv", 1e150, 10**-159.22),
                   "coefficient" if command == ["arx"] else "standard error"),
                  (baseline, "coefficient")]
        for path, what in series:
            code, text = invoke([*command, "--data", str(path), "--intervention-week", "30",
                                 "--confounders", "c", "--format", fmt])
            assert (code, text) == (1, "")
            assert capsys.readouterr().err.splitlines() == [
                f"error: design column 'c' is too small for the outcome: its {what} overflows"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_undefined_number_cell(self, value):
        """Every table cell goes through `_fmt`, an ARX standard error's too."""
        assert _fmt(value) == _fmt(value, 3) == "undefined"

    @pytest.mark.parametrize("command", [["fit"], ["diagnose"], ["effect"], ["arx"],
                                         ["export", "--output", "{out}"]],
                             ids=["fit", "diagnose", "effect", "arx", "export"])
    def test_outcome_too_large_to_square_exits_1(self, tmp_path, capsys, command):
        """Outcomes near 2e156 overflow the sum of squares: an error line, not a traceback."""
        rng = np.random.default_rng(3)
        path = tmp_path / "large.csv"
        rows = "".join(f"{w},{2e156 + 1e155 * rng.normal()!r}\n" for w in range(1, 41))
        path.write_text("week,y\n" + rows)
        argv = [arg.format(out=tmp_path / "out.csv") for arg in command]
        code, _ = invoke([*argv, "--data", str(path), "--intervention-week", "21"])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: the outcome is too large: the sum of squares of its residuals overflows")

    @pytest.mark.parametrize("command, expected", [
        (["fit", "--intervention-week", "30"],
         "error: the outcome is too large: the sum of squares of its residuals overflows"),
        (["data", "summary", "--split-week", "30"],
         "error: the outcome 'y' is too large: its sum overflows"),
    ], ids=["fit", "data-summary"])
    def test_outcome_near_the_largest_float_exits_1(self, tmp_path, capsys, command, expected):
        """Outcomes near 1.7e308: exactly one error line, no warning and no traceback."""
        rng = np.random.default_rng(4)
        path = tmp_path / "largest.csv"
        rows = "".join(f"{w},{1.7e308 * (0.5 + 0.1 * rng.normal())!r}\n" for w in range(1, 61))
        path.write_text("week,y\n" + rows)
        code, _ = invoke([*command, "--data", str(path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [expected]

    def test_repeated_confounder_exits_1(self, capsys):
        code, _ = invoke(["arx", *CASE_STUDY_FLAGS, "--confounders", "occupancy,occupancy"])
        assert code == 1
        assert "'occupancy' is listed more than once" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_json_values(self):
        code, text = invoke([
            "diagnose", *CASE_STUDY_FLAGS,
            "--confounders", "admissions,discharges,occupancy",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["dw"]["stat"] == pytest.approx(1.98, abs=0.01)
        assert payload["ljung_box"]["df"] == 10
        assert len(payload["acf"]) == 20

    def test_exact_fit_exits_1(self, tmp_path, capsys):
        """The residuals of y = 1 + week are rounding error, not a series to diagnose."""
        path = tmp_path / "line.csv"
        path.write_text("week,y\n" + "".join(f"{w},{1 + w}\n" for w in range(1, 41)))
        code, text = invoke(["diagnose", "--data", str(path), "--intervention-week", "20"])
        assert (code, text) == (1, "")
        assert "the fit is exact" in capsys.readouterr().err

    def test_residuals_near_1e153_exit_0(self, tmp_path, capsys):
        """Their sum of squared differences overflowed: an overflow warning, then an error."""
        path = tmp_path / "alternating.csv"
        rows = "".join(f"{w},{(1.2e153 if w % 2 else -1.2e153) + 1e150 * w!r}\n" for w in range(1, 61))
        path.write_text("week,y\n" + rows)
        argv = ["diagnose", "--data", str(path), "--intervention-week", "30", "--format", "json"]
        code, text = invoke(argv)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert strict_json(text)["dw"]["stat"] == pytest.approx(3.9333, abs=1e-4)

    def test_table_output(self):
        code, text = invoke(["diagnose", *CASE_STUDY_FLAGS])
        assert code == 0
        assert "Durbin-Watson" in text
        assert "Ljung-Box" in text
        assert "lag  1" in text


class TestArxCommand:
    def test_pipeline_report(self):
        code, text = invoke([
            "arx", *CASE_STUDY_FLAGS, "--confounders", "occupancy",
        ])
        assert code == 0
        assert "baseline: ARX(2) intercept+occupancy" in text
        assert "level change:" in text and "significant" in text
        assert "trend change:" in text and "not significant" in text

    def test_json_level_test(self):
        code, text = invoke([
            "arx", *CASE_STUDY_FLAGS, "--confounders", "occupancy",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["level_test"]["lambda"] == pytest.approx(12.2, abs=0.5)
        assert payload["level_test"]["significant"] is True
        assert payload["trend_test"]["significant"] is False
        assert payload["baseline"]["order"] == 2
        assert payload["full"]["beta"]["intervention"] == pytest.approx(-12.6, abs=0.3)
        assert len(payload["selection_trace"]) == 8  # 2 candidate sets x orders 0..3

    def test_trace_is_read_off_the_selection_fits(self):
        """Each JSON trace entry names and scores its candidate as the record's own fit does."""
        confounders = ("occupancy", "admissions")
        code, text = invoke(["arx", *CASE_STUDY_FLAGS, "--confounders", ",".join(confounders),
                             "--format", "json"])
        assert code == 0
        design = build_design(load_case_study(), InterventionSpec(53), list(confounders))
        selection = select_baseline(design, 3, _candidate_sets(confounders))
        assert [(rec["label"], rec["deviance"]) for rec in strict_json(text)["selection_trace"]] == [
            (rec.fit.label, rec.fit.deviance) for rec in selection.trace]

    def test_orders_beyond_whiteness_lags_write_null(self):
        code, text = invoke([
            "arx", *CASE_STUDY_FLAGS, "--confounders", "occupancy",
            "--arx-max-order", "10", "--format", "json",
        ])
        assert code == 0
        trace = strict_json(text)["selection_trace"]
        unchecked = [rec for rec in trace if rec["label"].startswith("ARX(10)")]
        assert len(unchecked) == 2
        assert all(rec["whiteness_p"] is None and not rec["admissible"] for rec in unchecked)

    @pytest.mark.parametrize("command", [["arx"], ["export", "--arx", "--output", "{out}"]],
                             ids=["arx", "export-arx"])
    @pytest.mark.parametrize("rows, flags", [
        (["week,y", *(f"{w},{0.5 * (w - 2)}" for w in range(2, 68))],
         ["--intervention-week", "16", "--lag", "2"]),
        (["week,y,c0,c1", *(f"{w},{round(0.5 * w)},{int(w == 0)},{int(w == 3)}" for w in range(80))],
         ["--intervention-week", "10", "--confounders", "c0,c1"]),
    ], ids=["line", "rounded-line-and-spikes"])
    def test_singular_step_exits_1(self, tmp_path, capsys, command, rows, flags):
        """No ARX candidate converges, and none escapes as a traceback.

        On a noise-free line the Gauss-Newton R is singular. On the rounded line
        with spikes a diverging member's Hessian has a Cholesky factor but no solution.
        """
        path = tmp_path / "line.csv"
        path.write_text("\n".join(rows) + "\n")
        argv = [arg.format(out=tmp_path / "out.csv") for arg in command]
        code, _ = invoke([*argv, "--data", str(path), *flags])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: no candidate passed the residual whiteness check"]

    def test_series_too_short_for_whiteness_check_exits_1(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("week,y\n" + "".join(f"{w},{10 + (w * 7) % 5}\n" for w in range(1, 23)))
        code, _ = invoke(["arx", "--data", str(path), "--intervention-week", "11"])
        assert code == 1
        assert ("22 weeks with maximum order 3 leave 19 weeks of residuals; "
                "the 10-lag whiteness check needs more than 20") in capsys.readouterr().err

    def test_order_too_large_for_the_series_names_the_model(self, capsys):
        code, _ = invoke(["arx", *CASE_STUDY_FLAGS, "--arx-max-order", "60"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ARX(56) intercept needs n > 2(p + k) observations: n=114, p=56, k=1\n")


class TestEffectCommand:
    def test_single_week(self):
        code, text = invoke([
            "effect", *CASE_STUDY_FLAGS, "--week", "54", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["week"] == 54
        assert payload["counterfactual"] == pytest.approx(28.7, abs=1.0)
        assert payload["fitted"] == pytest.approx(12.1, abs=1.0)

    def test_series_summary_table(self):
        code, text = invoke(["effect", *CASE_STUDY_FLAGS])
        assert code == 0
        assert "post-intervention weeks: 62" in text
        assert "mean relative change:" in text
        assert "stabilized: not reached\n" in text  # the 8-week rolling mean drifts ~0.75 points a week

    def test_series_csv(self):
        code, text = invoke(["effect", *CASE_STUDY_FLAGS, "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "week,observed,fitted,counterfactual,absolute_change,relative_change"
        assert len(lines) == 1 + 62
        assert lines[1].startswith("53,")

    @pytest.mark.parametrize("level, label", [
        ("0.95", "95% CI"), ("0.57", "57% CI"), ("0.29", "29% CI"), ("0.975", "97.5% CI"),
    ])
    def test_ci_label_shows_the_level(self, level, label):
        # int(0.57 * 100) is 56: the label must not truncate the level's own digits
        code, text = invoke(["effect", *CASE_STUDY_FLAGS, "--week", "54", "--ci-level", level])
        assert code == 0
        assert f"  {label} (" in text

    def test_undefined_relative_change_is_null(self, tmp_path, rng):
        """Weeks with a non-positive counterfactual write null, never NaN, in the JSON."""
        weeks = np.arange(1, 61)
        # the counterfactual 12 - 0.3 * week crosses zero at week 40, inside the post period
        y = 12.0 - 0.3 * weeks + 5.0 * (weeks >= 21) + 0.2 * rng.normal(size=weeks.size)
        path = tmp_path / "crossing.csv"
        path.write_text("week,y\n" + "".join(f"{w},{v!r}\n" for w, v in zip(weeks, y.tolist())))
        code, text = invoke(["effect", "--data", str(path), "--intervention-week", "21",
                             "--format", "json"])
        assert code == 0
        estimates = strict_json(text)["estimates"]
        undefined = [e for e in estimates if e["method"] == "ols:relative-undefined"]
        assert undefined and len(undefined) < len(estimates)
        for e in undefined:
            assert e["relative_change"] is None and e["ci"] == [None, None]

    def test_ci_does_not_depend_on_a_column_scale(self, tmp_path, capsys):
        """c x 1e-200 gives scale 1's CI with nothing on stderr, where the covariance overflowed."""
        cis = []
        for scale in (1.0, 1e-200):
            path = scaled_series(tmp_path / "scaled.csv", 1.0, scale)
            code, text = invoke(["effect", "--data", str(path), "--intervention-week", "30",
                                 "--confounders", "c", "--week", "45", "--format", "json"])
            assert code == 0
            assert capsys.readouterr().err == ""
            cis.append(strict_json(text)["ci"])
        assert cis[1] == pytest.approx(cis[0], rel=1e-12, abs=0.0)

    def test_week_out_of_range_exits_1(self, capsys):
        code, _ = invoke(["effect", *CASE_STUDY_FLAGS, "--week", "999"])
        assert code == 1
        assert "outside" in capsys.readouterr().err


class TestExportCommand:
    def test_export_rows_and_header(self, tmp_path):
        out_file = tmp_path / "series.csv"
        code, _ = invoke([
            "export", *CASE_STUDY_FLAGS, "--output", str(out_file),
        ])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "week,observed,fitted,counterfactual"
        assert len(lines) == 1 + 114

    def test_export_with_arx_column(self, tmp_path):
        out_file = tmp_path / "series_arx.csv"
        code, _ = invoke([
            "export", *CASE_STUDY_FLAGS, "--confounders", "occupancy",
            "--arx", "--output", str(out_file),
        ])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "week,observed,fitted,counterfactual,arx_fitted"
        # first two rows have no lagged errors, so the ARX cell is empty
        assert lines[1].endswith(",")
        assert lines[2].endswith(",")
        assert not lines[3].endswith(",")

    def test_export_confirmation_goes_to_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "series.csv"
        code, text = invoke(["export", *CASE_STUDY_FLAGS, "--output", str(out_file)])
        assert code == 0
        assert text == ""  # the command's result is the file
        assert capsys.readouterr().out == f"wrote 114 rows to {out_file}\n"

    def test_export_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = invoke(["export", *CASE_STUDY_FLAGS, "--output", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestWarnings:
    """A warning prints as one `warning: ...` line on stderr, not as Python's file:line report."""

    def test_arx_unit_root(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        path.write_text("week,y\n" + "".join(f"{w},{0.5 * (w - 2)}\n" for w in range(2, 68)))
        code, _ = invoke(["arx", "--data", str(path), "--intervention-week", "16", "--lag", "2"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: ARX(1) intercept has an autoregressive root at or inside the unit circle; "
            "estimates may be unstable",
            "error: no candidate passed the residual whiteness check",
        ]

    def test_validate_derived_columns(self, tmp_path, capsys):
        path = tmp_path / "derived.csv"
        path.write_text("week,y,level change\n"
                        + "".join(f"{w},{10 + w % 3},{int(w >= 10 or w == 5)}\n" for w in range(1, 21)))
        code, _ = invoke(["data", "validate", "--data", str(path), "--intervention-week", "10"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: ignoring derived design columns: level change",
            "warning: row 6: column 'level change' is 1 but intervention week 10 implies 0 "
            "(1 of 20 rows disagree)",
        ]

    def test_one_warning_per_disagreeing_column(self, tmp_path, capsys):
        path = tmp_path / "derived.csv"
        path.write_text("week,y,level change,trend change\n" + "".join(
            f"{w},{w % 7},{int(w >= 20)},{max(w - 20, 0)}\n" for w in range(1, 41)))
        code, _ = invoke(["data", "validate", "--data", str(path), "--intervention-week", "20"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: ignoring derived design columns: level change, trend change",
            "warning: row 21: column 'trend change' is 0 but intervention week 20 implies 1 "
            "(21 of 40 rows disagree)",
        ]

    @pytest.mark.parametrize("week", [[], ["--intervention-week", "3"]], ids=["none", "given"])
    def test_non_numeric_derived_cell_exits_1(self, tmp_path, capsys, week):
        path = tmp_path / "derived.csv"
        path.write_text("week,y,trend change\n1,5,0\n2,6,x\n3,7,1\n")
        assert invoke(["data", "validate", "--data", str(path), *week]) == (1, "")
        assert "error: row 3, column 'trend change': non-numeric value 'x'" in capsys.readouterr().err


class TestConfigAndUsage:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "analysis.json"
        cfg.write_text(json.dumps({
            "builtin_case_study": True,
            "intervention_week": 53,
            "confounders": ["occupancy"],
            "output_format": "json",
        }))
        code, text = invoke(["fit", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(text)
        assert "occupancy" in payload["coefficients"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "analysis.json"
        cfg.write_text(json.dumps({
            "builtin_case_study": True,
            "intervention_week": 53,
            "output_format": "json",
        }))
        code, text = invoke(["fit", "--config", str(cfg), "--format", "table"])
        assert code == 0
        assert "term" in text  # table, not JSON

    def test_zero_valued_flags_override_config(self, tmp_path):
        cfg = tmp_path / "analysis.json"
        cfg.write_text(json.dumps({"lag": 2, "arx_max_order": 2}))
        common = [*CASE_STUDY_FLAGS, "--config", str(cfg), "--format", "json"]
        code, text = invoke(["fit", *common, "--lag", "0"])
        assert code == 0
        # the lag-0 estimate; the config file's lag 2 gives -15.3756
        assert json.loads(text)["coefficients"]["intervention"]["estimate"] == pytest.approx(-17.0587, abs=1e-4)
        # the file's arx_max_order 2 finds a baseline; order 0 has no candidate with white residuals
        arx = ["arx", *common, "--confounders", "occupancy"]
        assert invoke(arx)[0] == 0
        assert invoke([*arx, "--arx-max-order", "0"]) == (1, "")

    def test_invalid_config_payload(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2, 3]")
        code, _ = invoke(["fit", "--config", str(cfg)])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("values, key", [
        ("{bad", None),
        ({"intervention_week": "5x"}, "intervention_week"),
        ({"intervention_week": 53.5}, "intervention_week"),
        ({"lag": True}, "lag"),
        ({"confounders": 5}, "confounders"),
        ({"confounders": ["occupancy", 5]}, "confounders"),
        ({"ci_level": "abc"}, "ci_level"),
        ({"output_format": "xml"}, "output_format"),
        ({"builtin_case_study": "yes"}, "builtin_case_study"),
        (UNKNOWN_KEY, "confounder"),  # the setting is "confounders"
    ])
    def test_invalid_config_value_exits_1(self, tmp_path, capsys, values, key):
        cfg = tmp_path / "analysis.json"
        if isinstance(values, dict):
            values = json.dumps({"builtin_case_study": True, "intervention_week": 53, **values})
        cfg.write_text(values)
        assert invoke(["fit", "--config", str(cfg)]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}")
        assert key is None or f": {key} = " in err

    @pytest.mark.parametrize("values, flags", [
        ({"output_format": "xml"}, ["--format", "table"]),  # checked although the flag wins
        ({"lag": None}, []),  # null is no value a flag takes
    ], ids=["overridden", "null"])
    def test_every_config_value_is_checked(self, tmp_path, capsys, values, flags):
        cfg = tmp_path / "analysis.json"
        cfg.write_text(json.dumps(values))
        assert invoke(["fit", *CASE_STUDY_FLAGS, "--config", str(cfg), *flags]) == (1, "")
        key, value = next(iter(values.items()))
        assert f"error: config file {cfg}: {key} = {value!r} is not a valid" in capsys.readouterr().err

    def test_config_strings_parse_as_flags(self, tmp_path):
        cfg = tmp_path / "analysis.json"
        cfg.write_text(json.dumps({"intervention_week": "53", "ci_level": "0.9"}))
        argv = ["effect", "--builtin-case-study", "--week", "54"]
        assert invoke([*argv, "--config", str(cfg)]) == invoke(
            [*argv, "--intervention-week", "53", "--ci-level", "0.9"])

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["data", "validate", "--builtin-case-study", "--intervention-week", "0"],
         "intervention week must be >= 1, got 0"),
        (["fit", *CASE_STUDY_FLAGS, "--lag", "-1"], "lag must be non-negative, got -1"),
    ], ids=["intervention-week", "lag"])
    def test_out_of_range_week_setting_exits_1(self, argv, message, capsys):
        code, _ = invoke(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_invalid_ci_level_exits_1(self, capsys):
        code, _ = invoke(["effect", *CASE_STUDY_FLAGS, "--ci-level", "1.5"])
        assert code == 1
        assert "ci_level" in capsys.readouterr().err

    def test_outcome_reselection(self):
        code, text = invoke([
            "data", "validate", "--builtin-case-study", "--outcome", "occupancy",
        ])
        assert code == 0
        assert "'occupancy'" in text

    def test_unknown_outcome_exits_1(self, capsys):
        code, _ = invoke([
            "data", "validate", "--builtin-case-study", "--outcome", "nope",
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["arx", "fit"])
    @pytest.mark.parametrize(
        "week, lag, before, after", [(114, 0, 113, 1), (1, 0, 0, 114), (110, 4, 113, 1)]
    )
    def test_changepoint_without_two_weeks_each_side_exits_1(
        self, command, week, lag, before, after, capsys
    ):
        code, _ = invoke([
            command, "--builtin-case-study", "--intervention-week", str(week), "--lag", str(lag),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"intervention week {week} with lag {lag}" in err
        assert f"leaving {before} weeks before it and {after} from it on" in err

    def test_lag_shifts_results(self):
        _, base = invoke(["fit", *CASE_STUDY_FLAGS, "--format", "json"])
        _, lagged = invoke(["fit", *CASE_STUDY_FLAGS, "--lag", "1", "--format", "json"])
        base_level = json.loads(base)["coefficients"]["intervention"]["estimate"]
        lag_level = json.loads(lagged)["coefficients"]["intervention"]["estimate"]
        assert base_level != lag_level


def test_python_m_entry_point(tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def python_m_itsa(*argv):
        return subprocess.run([sys.executable, "-m", "itsa", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    fit = python_m_itsa("fit", *CASE_STUDY_FLAGS)
    assert (fit.returncode, fit.stdout) == invoke(["fit", *CASE_STUDY_FLAGS])
    assert python_m_itsa("data", "validate", "--builtin-case-study").returncode == 0
    assert python_m_itsa("data", "validate", "--data", str(tmp_path / "none.csv")).returncode == 1
    assert python_m_itsa("fit", *CASE_STUDY_FLAGS, "--no-such-flag").returncode == 2
    assert python_m_itsa().returncode == 2
    cfg = tmp_path / "analysis.json"
    cfg.write_text(json.dumps({"builtin_case_study": True, "intervention_week": 53,
                               **UNKNOWN_KEY}))
    unknown = python_m_itsa("fit", "--config", str(cfg))
    assert unknown.returncode == 1
    assert f"config file {cfg}: confounder = " in unknown.stderr
