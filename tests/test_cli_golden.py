"""Golden CLI outputs: the written output, console, exit code and exported file.

Every subcommand runs on the case study in every format, without
confounders, with occupancy and with all three, plus single cases for
`--lag`, `--outcome` and the error paths. The expected outputs in
`data/cli_golden.json` were captured from the CLI before its dispatch
was rewritten. Text is compared byte for byte. JSON output is compared
key by key, with numbers within 1e-9 relative, so that BLAS rounding
cannot fail the test; its layout is checked by re-serializing it.

Regenerate the file (only for an intended change of output) with
`PYTHONPATH=src python tests/test_cli_golden.py`. Naming cases, as in
`PYTHONPATH=src python tests/test_cli_golden.py arx/all/json fit/lag2/table`,
re-captures only those and keeps every other stored case as it is. A
re-captured JSON number that agrees with the stored one within the
test's tolerance keeps its stored value, so the diff shows only real
changes; text is stored as captured.

Compare this tree's CLI with another's, as before and after a change, with
`PYTHONPATH=src python tests/test_cli_golden.py --compare OTHER_SRC`. It
captures every case here and again in a subprocess with `PYTHONPATH=OTHER_SRC`,
and names each case whose raw captures differ in any field: the written
output, console, exported file or exit code. For JSON output that differs only
in numbers it gives their largest relative difference. It exits 1 if any case
differs in anything but JSON numbers.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from itsa.cli import run

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
OUTPUT = "{output}"  # stands for the export path in argv and in the captured text
CASE_STUDY = ["--builtin-case-study", "--intervention-week", "53"]
COMMANDS = {
    "validate": ["data", "validate"],
    "summary": ["data", "summary"],
    "fit": ["fit"],
    "diagnose": ["diagnose"],
    "arx": ["arx"],
    "effect": ["effect"],
    "effect-week54": ["effect", "--week", "54"],
    "export": ["export", "--output", OUTPUT],
    "export-arx": ["export", "--arx", "--output", OUTPUT],
}
CONFOUNDERS = {
    "none": [],
    "occupancy": ["--confounders", "occupancy"],
    "all": ["--confounders", "admissions,discharges,occupancy"],
}
FORMATS = ("table", "json", "csv")


def golden_cases() -> dict[str, list[str]]:
    cases = {}
    for command, words in COMMANDS.items():
        for confounders, flags in CONFOUNDERS.items():
            for fmt in FORMATS:
                cases[f"{command}/{confounders}/{fmt}"] = [*words, *CASE_STUDY, *flags, "--format", fmt]
    for command in ("fit", "diagnose", "arx", "effect", "export-arx"):
        for fmt in ("table", "json"):
            cases[f"{command}/lag2/{fmt}"] = [*COMMANDS[command], *CASE_STUDY, "--lag", "2",
                                              "--confounders", "occupancy", "--format", fmt]
    for command in ("validate", "summary", "fit", "effect"):
        for fmt in ("table", "json"):
            cases[f"{command}/outcome-occupancy/{fmt}"] = [
                *COMMANDS[command], *CASE_STUDY, "--outcome", "occupancy", "--format", fmt]
    cases.update({
        "error/unknown-outcome": ["data", "validate", "--builtin-case-study", "--outcome", "nope"],
        "error/missing-file": ["fit", "--data", "/no/such/file.csv", "--intervention-week", "53"],
        "error/no-input": ["fit", "--intervention-week", "53"],
        "error/summary-without-split": ["data", "summary", "--builtin-case-study"],
        "error/no-intervention-week": ["fit", "--builtin-case-study"],
        "error/changepoint-at-end": ["arx", "--builtin-case-study", "--intervention-week", "114"],
        "error/week-out-of-range": ["effect", *CASE_STUDY, "--week", "999", "--format", "json"],
        "error/ci-level": ["effect", *CASE_STUDY, "--ci-level", "1.5"],
        "error/unknown-confounder": ["fit", *CASE_STUDY, "--confounders", "nope"],
        "error/export-unwritable": ["export", *CASE_STUDY, "--output", "/no/such/dir/out.csv"],
    })
    return cases


def capture(argv: list[str], directory: pathlib.Path) -> dict:
    """Run the CLI in-process; return what it wrote where, with the export path masked."""
    path = directory / "export.csv"
    out, stdout, stderr = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([str(path) if a == OUTPUT else a for a in argv], out=out)
    result = {"argv": argv, "code": code, "out": out.getvalue(),
              "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if path.exists():
        result["file"] = path.read_text(encoding="utf-8")
        path.unlink()
    for key in ("out", "stdout", "stderr"):
        result[key] = result[key].replace(str(path), OUTPUT)
    return result


def same_number(actual, expected: float) -> bool:
    """Does `actual` equal the float `expected` within 1e-9 relative (NaN equal to NaN)?"""
    return isinstance(actual, (int, float)) and not isinstance(actual, bool) and (
        (math.isnan(actual) and math.isnan(expected))
        or math.isclose(actual, expected, rel_tol=1e-9))


def keep_stored_numbers(fresh, stored):
    """`fresh`, where each float that `same_number` finds equal to its stored value keeps that."""
    if isinstance(fresh, dict) and isinstance(stored, dict):
        return {key: keep_stored_numbers(value, stored.get(key)) for key, value in fresh.items()}
    if isinstance(fresh, list) and isinstance(stored, list) and len(fresh) == len(stored):
        return [keep_stored_numbers(f, s) for f, s in zip(fresh, stored)]
    return stored if isinstance(stored, float) and same_number(fresh, stored) else fresh


def assert_json_close(actual, expected, where="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            assert_json_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert same_number(actual, expected), f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, where


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_case():
    assert list(GOLDEN) == list(golden_cases())


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path):
    expected = dict(GOLDEN[name])
    actual = capture(expected["argv"], tmp_path)
    if "json" in expected:
        text = actual.pop("out")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert_json_close(json.loads(text), expected.pop("json"))
    assert actual == expected


def test_recapture_keeps_stored_numbers_within_tolerance():
    stored = {"a": 1.0, "b": [2.0, {"c": 3.0, "d": "text"}], "e": 5.0, "f": 7.0}
    fresh = {"a": 1.0 + 1e-12, "b": [2.5, {"c": 3.0 - 1e-12, "d": "new text"}], "e": 5,
             "f": None, "g": 8.0}
    assert keep_stored_numbers(fresh, stored) == {
        "a": 1.0, "b": [2.5, {"c": 3.0, "d": "new text"}], "e": 5.0, "f": None, "g": 8.0}
    assert keep_stored_numbers([1.0 + 1e-12, 2.0], [1.0]) == [1.0 + 1e-12, 2.0]


def test_json_gap_is_the_largest_relative_number_difference():
    assert json_gap({"a": [1.0, 2.0], "b": "x", "n": 3}, {"a": [1.0, 2.0], "b": "x", "n": 3}) == 0.0
    assert json_gap({"a": [1.0, 4.0], "b": -2.0}, {"a": [1.0, 5.0], "b": -2.0}) == 0.2
    for actual, expected in [({"a": 1.0}, {"b": 1.0}), ([1.0], [1.0, 2.0]), ("x", "y"), (1.0, None),
                             (3, 4), (True, 1.0)]:
        assert json_gap(actual, expected) is None


def json_gap(actual, expected) -> float | None:
    """The largest relative difference of the numbers in two parsed JSON values.

    None when anything else differs: a key, a length, a type or a value that is not a float.
    """
    if isinstance(actual, float) and isinstance(expected, float):
        return 0.0 if actual == expected else abs(actual - expected) / max(abs(actual), abs(expected))
    if isinstance(actual, dict) and isinstance(expected, dict) and list(actual) == list(expected):
        gaps = [json_gap(actual[key], expected[key]) for key in actual]
    elif isinstance(actual, list) and isinstance(expected, list) and len(actual) == len(expected):
        gaps = [json_gap(a, e) for a, e in zip(actual, expected)]
    else:
        return 0.0 if type(actual) is type(expected) and actual == expected else None
    return None if None in gaps else max(gaps, default=0.0)


def capture_all() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: capture(argv, pathlib.Path(tmp)) for name, argv in golden_cases().items()}


def compare(other_src: str) -> int:
    """Name each case whose captures here and with `other_src` differ; 1 if any differs in text."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(other_src).resolve())}
    other = json.loads(subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    differ = in_text = 0
    for name, ours in capture_all().items():
        theirs = other[name]
        fields = [key for key in {**ours, **theirs} if ours.get(key) != theirs.get(key)]
        if not fields:
            continue
        gap = None
        if "out" in fields and "json" in ours["argv"]:
            try:
                gap = json_gap(json.loads(ours["out"]), json.loads(theirs["out"]))
            except json.JSONDecodeError:
                pass
        in_text_here = gap is None or fields != ["out"]
        differ, in_text = differ + 1, in_text + in_text_here
        print(f"{name}: differs in {', '.join(fields)}{'' if in_text_here else ', in JSON numbers only'}"
              + ("" if gap is None else f", by at most {gap:.2g} relative"))
    print(f"{differ} of {len(other)} cases differ from {other_src}, {in_text} of them in text")
    return 1 if in_text else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:  # the captures as JSON, for `--compare` in another tree
        print(json.dumps(capture_all()))
        sys.exit()
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 3:
        sys.exit(compare(sys.argv[2]))
    cases = golden_cases()
    names = sys.argv[1:] or list(cases)
    unknown = [name for name in names if name not in cases]
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        captured = {name: capture(cases[name], pathlib.Path(tmp)) for name in names}
    for result in captured.values():  # JSON output is stored parsed, to be compared by value
        if "json" in result["argv"] and result["out"].startswith("{"):
            result["json"] = json.loads(result.pop("out"))
    captured = {name: keep_stored_numbers(result, GOLDEN.get(name))
                for name, result in captured.items()}
    stored = {**GOLDEN, **captured}
    merged = {name: stored[name] for name in cases if name in stored}  # in golden_cases() order
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} of {len(merged)} cases to {GOLDEN_PATH}")
