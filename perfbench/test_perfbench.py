"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke test runs every workload for about a second in both modes and
checks that each metric BENCHMARK.json names is printed with its unit.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_itsa()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

REPEATED_COUNTS = ("arx.fits", "distributions.calls", "ols.calls", "effect.weeks")


def test_spec_names_workloads_the_runner_knows():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def _corrupt_case_study(result):
    outputs = list(result["outputs"])
    code, text = outputs[3]  # diagnose
    outputs[3] = (code, text.replace("stat=1.9795", "stat=1.8795"))
    return {**result, "outputs": outputs}


def _corrupt_long_series(result):
    estimates = list(result["effects"].estimates)
    estimates[5] = dataclasses.replace(estimates[5],
                                       absolute_change=estimates[5].absolute_change + 0.01)
    return {**result, "effects": dataclasses.replace(result["effects"],
                                                     estimates=tuple(estimates))}


def _corrupt_panel_scan(result):
    header, first, *rest = result["written"].splitlines(keepends=True)
    week, outcome, *others = first.split(",")
    first = ",".join([week, str(float(outcome) + 1.0), *others])
    return {**result, "written": "".join([header, first, *rest])}


CORRUPT = {
    "case_study": _corrupt_case_study,
    "long_series": _corrupt_long_series,
    "panel_scan": _corrupt_panel_scan,
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_result_counts_as_failed(name):
    real = workloads.WORKLOADS[name]
    inp = real.make_inputs(5)[0]
    broken = dataclasses.replace(real, analyse=lambda i: CORRUPT[name](real.analyse(i)))
    counter = run.Counter()
    assert counter.run_checked(real, inp) is not None
    assert counter.run_checked(broken, inp) is None
    assert (counter.attempted, counter.failed) == (2, 1)


def _traced_counts(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(7)
    tracer = spans.Tracer()
    counter = run.Counter()
    traced = {i: counter.run_checked(workload, inputs[i % len(inputs)], tracer, i)
              for i in range(2)}
    assert counter.failed == 0
    metrics = run.per_layer_metrics(tracer.per_analysis(list(traced)), traced, [1.0])
    return {k: metrics[k][0] for k in REPEATED_COUNTS}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly_for_a_fixed_seed(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert first["ols.calls"] > 0 and first["distributions.calls"] > 0
    assert (first["arx.fits"] == 0) == (name == "panel_scan")


def test_tracer_restores_the_library():
    import itsa.effect

    original = itsa.effect.normal_quantile
    tracer = spans.Tracer()
    tracer.install()
    assert itsa.effect.normal_quantile is not original
    tracer.uninstall()
    assert itsa.effect.normal_quantile is original


def test_tail_has_ten_samples_above_it():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0)
    assert run.tail(samples[:10]) == (9.0, 100.0)


def test_reference_scaling_keeps_the_share_of_a_change():
    reference = run.ReferenceTask()
    assert reference.time_s() > 0
    ms = run.REFERENCE_MS * 1e-3
    assert reference.scale(0.5, ms, ms) == pytest.approx(0.5)
    assert reference.scale(0.5, 2 * ms, 2 * ms) == pytest.approx(0.25)
    assert reference.scale(0.4, 3 * ms, ms) == pytest.approx(0.2)
