"""Generated inputs for the CLI: every subcommand ends in exit 0 or 1, never a traceback.

Hypothesis draws a weekly CSV: 6-80 weeks from an offset start week, a level
from 0 to 1e6, noise from exactly 0 to 10, an optional trend and rounding, and
confounders that are normal, constant, collinear with the week or a single
spike. It also draws an intervention week inside or outside the data, a lag of
0-2, an ARX maximum order of 0-3 and an export path that may not be writable.
Every subcommand runs in process through `run()`, with `--format json`:

- the exit code is 0 or 1;
- an exit of 1 writes exactly one `error: ...` line to stderr;
- JSON written on an exit of 0 parses strictly;
- no exception leaves `run()`.

pytest turns a RuntimeWarning into an error, so numerics that overflow or take
an invalid value fail a case too. The draws are derandomized and their number
fixed, so the suite is deterministic.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itsa.cli import run

from test_cli import strict_json

# Drawn series often have autoregressive roots on the unit circle; that warning is expected.
pytestmark = pytest.mark.filterwarnings("ignore:.*autoregressive root:UserWarning")

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


def run_in_process(argv):
    """Exit code, stdout and stderr of one `run()`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
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
