"""Generated inputs for the CLI: every subcommand ends in exit 0 or 1, never a traceback.

Hypothesis draws a weekly CSV: 6-80 weeks from an offset start week, a level
from 0 to 1e6, noise from exactly 0 to 10, an optional trend and rounding, and
confounders that are normal, constant, collinear with the week or a single
spike. It also draws an intervention week inside or outside the data, a lag of
0-2, an ARX maximum order of 0-3 and an export path that may not be writable.
Every subcommand runs in process through `run()`, with `--format json`:

- the exit code is 0 or 1;
- an exit of 1 writes exactly one `error: ...` line to stderr;
- JSON written on an exit of 0 parses strictly, and the same command's table
  holds no number of 16 or more digits (1e15 and up are written as .3e);
- no exception leaves `run()`.

pytest turns a RuntimeWarning into an error, so numerics that overflow or take
an invalid value fail a case too. The draws are derandomized and their number
fixed, so the suite is deterministic.
"""

import pathlib
import re
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_cli_series import run_in_process, strict_json

EXAMPLES = 100
CONFOUNDER_KINDS = ("normal", "constant", "collinear", "spike")
JSON_COMMANDS = (  # each writes a JSON payload on success
    ["data", "summary"],
    ["fit"],
    ["diagnose"],
    ["arx"],
    ["effect"],
    ["effect", "--week", "{week}"],
)
TEXT_COMMANDS = (
    ["data", "validate"],
    ["export", "--output", "{output}"],
    ["export", "--arx", "--output", "{output}"],
)


@st.composite
def cli_cases(draw):
    """A CSV text and the flags shared by every subcommand run on it."""
    n = draw(st.integers(6, 80))
    start = draw(st.integers(-3, 60))
    weeks = np.arange(start, start + n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.floats(0.0, 1e6))
    noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    slope = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    y = level + slope * (weeks - start) + noise * rng.normal(size=n)
    if draw(st.booleans()):
        y = np.round(y)

    kinds = draw(st.lists(st.sampled_from(CONFOUNDER_KINDS), max_size=3))
    columns = {}
    for i, kind in enumerate(kinds):
        if kind == "normal":
            column = rng.normal(50.0, 10.0, size=n)
        elif kind == "constant":
            column = np.full(n, draw(st.floats(-100.0, 100.0)))
        elif kind == "collinear":
            column = 3.0 + 0.5 * weeks
        else:
            column = np.zeros(n)
            column[draw(st.integers(0, n - 1))] = 1.0
        columns[f"c{i}"] = column

    rows = [",".join(["week", "y", *columns])]
    rows += [",".join([str(week), repr(float(value)), *(repr(float(c[t])) for c in columns.values())])
             for t, (week, value) in enumerate(zip(weeks.tolist(), y.tolist()))]
    intervention = draw(st.integers(max(1, start - 3), start + n + 3))
    flags = ["--intervention-week", str(intervention),
             "--lag", str(draw(st.integers(0, 2))),
             "--arx-max-order", str(draw(st.integers(0, 3))),
             "--format", "json"]
    if columns:
        flags += ["--confounders", ",".join(columns)]
    output = draw(st.sampled_from(["out.csv", "missing/out.csv"]))
    return "\n".join(rows) + "\n", flags, {"week": str(intervention + 1), "output": output}


# A noise-free line: its ARX(1) intercept drifts to a unit root and the Gauss-Newton R of
# ARX(2) and up turns singular. The random draws rarely reach a line this long.
LINE_CASE = (
    "week,y\n" + "".join(f"{w},{0.5 * (w - 2)!r}\n" for w in range(2, 68)),
    ["--intervention-week", "16", "--lag", "2", "--arx-max-order", "3", "--format", "json"],
    {"week": "17", "output": "out.csv"},
)


def jump_case():
    """60 weeks of y = 1 + 0.01 N(0, 1) before week 30 and 1e20 (1 + 0.01 N(0, 1)) from it: its relative
    changes are near 2e17%, which the effect table once wrote in fixed point (default_rng(0))."""
    rng = np.random.default_rng(0)
    before, after = 1.0 + 0.01 * rng.normal(size=(2, 60))
    y = np.where(np.arange(1, 61) >= 30, 1e20 * after, before)
    text = "week,y\n" + "".join(f"{w},{v!r}\n" for w, v in zip(range(1, 61), y.tolist()))
    return text, ["--intervention-week", "30", "--format", "json"], {"week": "45", "output": "out.csv"}


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
@example(LINE_CASE)
@example(jump_case())
def test_every_subcommand_exits_0_or_1_with_one_error_line(case):
    text, flags, fields = case
    with tempfile.TemporaryDirectory() as tmp:
        data = pathlib.Path(tmp) / "series.csv"
        data.write_text(text)
        fields = {**fields, "output": str(pathlib.Path(tmp) / fields["output"])}
        for command in (*JSON_COMMANDS, *TEXT_COMMANDS):
            argv = [word.format(**fields) for word in command] + ["--data", str(data), *flags]
            code, out, err = run_in_process(argv)
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert code in (0, 1), argv
            if code == 1:
                assert len(errors) == 1, (argv, err)
            elif command in JSON_COMMANDS:
                strict_json(out)
                code, out, _ = run_in_process([*argv, "--format", "table"])
                assert code == 0 and not re.search(r"\d{16}", out), (argv, out)
