"""The CLI on edge-case series, run in process through `cli.run`.

- A seeded property: scaling a series' outcome by 2^s_y and its confounder by
  2^s_c scales every number that `data summary`, `fit`, `diagnose`, `arx`,
  `effect` and `effect --week` write in JSON by its exact power of two, or the
  command exits 1 with one `error:` line that names the column or the outcome.
  Their tables keep their columns.
- A confounder near 1e200 leaves every member of the ARX selection admissible.
- The built-in case study through the commands a user runs first.
- Residuals of alternating sign near 1e153, which no scale of the property's
  series reaches.
- The CLI's JSON writer is `json.dumps(indent=2, allow_nan=False)` byte for
  byte, and refuses NaN and infinities as it does.

The module imports nothing from the other tests, so the same checks run
against an installed package: copy it out of the checkout and run pytest on
it there with `-W error::RuntimeWarning`, which pyproject.toml sets in the
checkout.
"""

import contextlib
import functools
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itsa.cli import _json, run

FLAGS = ["--intervention-week", "30", "--confounders", "c"]
COMMANDS = {"data summary": ["data", "summary"], "fit": ["fit"], "diagnose": ["diagnose"], "arx": ["arx"],
            "effect": ["effect"], "effect --week": ["effect", "--week", "45"]}
TOO_LARGE = "the outcome is too large: the sum of squares of its residuals overflows"
TOO_SMALL = "the outcome is too small: the sum of squares of its residuals underflows"
# (s_y, s_c): the error of `data summary`, then of every other command; None where every output is
# a normal float that scales exactly. Each scale is far from where an output leaves the float range.
SCALES = {
    (0, 600): (None, None), (0, -600): (None, None), (0, 900): (None, None), (0, -900): (None, None),
    (400, 0): (None, None), (-400, 0): (None, None), (300, -300): (None, None), (500, 500): (None, None),
    (1, 0): (None, None), (-1, 0): (None, None), (10, 0): (None, None),
    (-515, 0): (None, TOO_SMALL), (-600, 0): (None, TOO_SMALL), (600, 0): (None, TOO_LARGE),
    (1020, 0): ("the outcome 'y' is too large: its sum overflows", TOO_LARGE),
    (500, -600): (None, "design column 'c' is too small for the outcome: its coefficient overflows"),
}
# Numbers in the outcome's units; sums of squares scale by 2^(2 s_y), and c's coefficient and se by 2^(s_y - s_c).
OUTCOME_UNITS = {"mean", "min", "max", "observed", "fitted", "counterfactual", "absolute_change"}
# Under the outcome's scale ARX fits are not exact: relative bounds, a few times the largest seen over
# seeds 0-19 and every scale above, by key (`beta` by its parent); 1e-15 for every other number.
ARX_BOUNDS = {"beta": 3e-13, "whiteness_p": 1e-14, "lambda": 1e-7, "p": 3e-10}


def run_in_process(argv):
    """Exit code, stdout and stderr of one `run()`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """Parse JSON, refusing the NaN, Infinity and -Infinity tokens that are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def scaled_series(seed, y_scale=1.0, c_scale=1.0):
    """CSV text of 60 weeks of y = 10 + N(0, 1) and c = 1 + N(0, 1) from default_rng(seed), each scaled."""
    rng = np.random.default_rng(seed)
    y, c = y_scale * (10.0 + rng.normal(size=60)), c_scale * (1.0 + rng.normal(size=60))
    return "week,y,c\n" + "".join(f"{w},{v!r},{u!r}\n" for w, v, u in zip(range(1, 61), y.tolist(), c.tolist()))


def run_series(seed, s_y, s_c, commands, fmt):
    """Exit code, stdout and stderr of each named command on the seed's series, scaled by 2^s_y and 2^s_c."""
    with tempfile.TemporaryDirectory() as tmp:
        data = pathlib.Path(tmp) / "series.csv"
        data.write_text(scaled_series(seed, 2.0**s_y, 2.0**s_c))
        return {name: run_in_process([*COMMANDS[name], "--data", str(data), *FLAGS, "--format", fmt])
                for name in commands}


@functools.cache
def unscaled(seed):
    return {name: strict_json(out) for name, (_, out, _) in run_series(seed, 0, 0, COMMANDS, "json").items()}


def leaves(payload, path=()):
    """(path, value) of every number, bool, string and null of a JSON payload, in order."""
    if isinstance(payload, (dict, list)):
        items = payload.items() if isinstance(payload, dict) else enumerate(payload)
        return [leaf for key, value in items for leaf in leaves(value, (*path, key))]
    return [(path, payload)]


def assert_scaled(base, scaled, s_y, s_c, arx):
    """Each float of `scaled` is its `base` counterpart times its power of two, and a deviance (or BIC)
    of n_e residuals, n_e log(RSS / n_e) + ..., is shifted by n_e 2 s_y ln 2. Anything else is equal."""
    for (path, value), (scaled_path, scaled_value) in zip(leaves(base), leaves(scaled), strict=True):
        assert scaled_path == path
        if type(value) is not float:
            assert scaled_value == value, path
            continue
        *_, parent, key = ("", *path)
        column = parent if key in ("estimate", "se") else key if parent in ("beta", "se") else None
        if key in ("rss", "sigma2"):
            power = 2 * s_y
        elif key in OUTCOME_UNITS or (column is not None and not column.startswith("phi")):
            power = s_y - s_c * (column == "c")
        else:
            power = 0
        expected, bound = math.ldexp(value, power), 0.0
        if key in ("deviance", "bic"):  # the selection trace's window is 60 weeks less the maximum order, 3
            n_e = base[path[0]]["n_effective"] if path[0] in ("baseline", "full") else base.get("n", 60 - 3)
            expected, bound = value + n_e * 2 * s_y * math.log(2.0), 1e-15
        elif arx:
            bound = ARX_BOUNDS.get("beta" if parent == "beta" else key, 1e-15)
        assert scaled_value == pytest.approx(expected, rel=bound if s_y else 0.0, abs=0.0), path


@pytest.mark.parametrize("s_y, s_c", SCALES)
@settings(max_examples=2, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 19))
@example(seed=0)
@example(seed=3)
def test_power_of_two_scales(s_y, s_c, seed):
    """Each output is scale 1's times its power of two, or the one error that SCALES names."""
    summary_error, error = SCALES[s_y, s_c]
    outputs = [(fmt, *output) for fmt, commands in (("json", COMMANDS), ("table", ["data summary", "fit"]))
               for output in run_series(seed, s_y, s_c, commands, fmt).items()]
    for fmt, name, (code, out, err) in outputs:
        expected = summary_error if name == "data summary" else error
        if expected:
            assert (code, out, err) == (1, "", f"error: {expected}\n"), (name, fmt)
        elif fmt == "json":
            assert (code, err) == (0, ""), name
            assert_scaled(unscaled(seed)[name], strict_json(out), s_y, s_c, name == "arx")
        elif name == "fit":  # no row is wider than the header
            header, *rows = out.splitlines()
            assert (code, err) == (0, "") and all(len(row) <= len(header) for row in rows), out
        else:  # and no summary cell is wider than .3e
            assert (code, err) == (0, "") and max(map(len, out.split())) <= 11, out


def test_every_member_with_a_large_confounder_is_admissible():
    """c x 2^664, about 1e200, once stopped every +c member of the selection unconverged at its start."""
    code, out, err = run_series(3, 0, 664, ["arx"], "json")["arx"]
    trace = strict_json(out)["selection_trace"]
    assert (code, err) == (0, "") and all(t["admissible"] for t in trace if "+c" in t["label"])


def test_case_study_session(tmp_path):
    """The built-in case study is read by the same `parse_csv` as a user file, and every command runs."""
    case = ["--builtin-case-study", "--intervention-week", "53"]
    assert run_in_process(["data", "validate", "--builtin-case-study"]) == (
        0, "ok: 114 records, outcome 'or_holds', covariates ['occupancy', 'discharges', 'admissions']\n", "")
    code, out, err = run_in_process(["arx", *case, "--confounders", "occupancy", "--format", "json"])
    assert (code, err) == (0, "") and strict_json(out)
    export, plain = tmp_path / "export.csv", tmp_path / "plain.csv"
    assert run_in_process(["export", *case, "--confounders", "occupancy", "--arx", "--output", str(export)])[0] == 0
    assert len(export.read_text().splitlines()) == 115  # a header and 114 weeks
    assert run_in_process(["export", *case, "--output", str(plain)])[0] == 0
    assert run_in_process(["data", "validate", "--data", str(plain)])[0] == 0  # reads what the CLI wrote
    for command in ("diagnose", "arx"):
        assert run_in_process([command, *case, "--confounders", "occupancy"])[::2] == (0, "")
    # the 20-member selection grid, scored in one pass, keeps a record per member
    code, out, _ = run_in_process(["arx", *case, "--confounders", "admissions,discharges,occupancy",
                                   "--format", "json"])
    assert code == 0 and len(strict_json(out)["selection_trace"]) == 20


def test_residuals_near_1e153_exit_0(tmp_path):
    """Alternating residuals near ±1.2e153: Durbin-Watson's sums of squares, which once overflowed, do not."""
    path = tmp_path / "alternating.csv"
    path.write_text("week,y\n" + "".join(
        f"{w},{(1.2e153 if w % 2 else -1.2e153) + 1e150 * w!r}\n" for w in range(1, 61)))
    code, out, err = run_in_process(["diagnose", "--data", str(path), "--intervention-week", "30",
                                     "--format", "json"])
    assert (code, err) == (0, "")
    assert strict_json(out)["dw"]["stat"] == pytest.approx(3.9333, abs=1e-4)


# JSON values as payloads hold them, and more: non-ASCII, quote and control characters, ints beyond 64 bits,
# the float range's edges, tuples and empty containers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**80) | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7e308, -1.7e308, 0.1, 1e-7]),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, database=None)
@given(value=JSON_VALUES)
@example(value={"": [], "é\"\\\x00\n\u2028\U0001f600": {}, "t": (), "x": [-0.0, 5e-324, 2**64, None, True, False]})
def test_json_writer_is_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, allow_nan=False)


@settings(max_examples=100, derandomize=True, database=None)
@given(value=JSON_VALUES, bad=st.sampled_from([math.nan, math.inf, -math.inf]), depth=st.integers(0, 4),
       key=st.text())
def test_json_writer_refuses_non_finite_numbers(value, bad, depth, key):
    """A NaN or an infinity anywhere, at the top or in lists, tuples and dicts, raises ValueError."""
    for level in range(depth):
        bad = [value, bad] if level % 3 == 0 else (bad, value) if level % 3 == 1 else {"k": value, key: bad}
    for write in (_json, functools.partial(json.dumps, indent=2, allow_nan=False)):
        with pytest.raises(ValueError):
            write(bad)
