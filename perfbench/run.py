"""Benchmark of the itsa library on three analysis workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: one client, one analysis
at a time, BLAS pinned to one thread. The inputs come from `--seed` alone.
Every analysis is checked; a failed check or an exception is a failure.

With `--trace 0` the run is untraced and reports the end-to-end metrics of
BENCHMARK.json. Its times are scaled to a reference speed: each is divided
by the time of a fixed reference task run next to it, because the host's
speed swings by up to twice. With `--trace 1` it alternates traced and
untraced analyses and reports the per-layer metrics; the spans go to
`.perfbench_out/`.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. The lines before it are for people.

Exit codes: 0 with a result printed, 2 when the itsa sources are missing.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before NumPy is imported, here and in the children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("case_study", "long_series", "panel_scan")
SETUP_RUNS = 5  # fresh interpreters timed for setup_s; the median is reported
REFERENCE_MS = 1.0  # nominal time of the reference task: the scale of normalised times
CHILD_TIMEOUT_S = 60


def import_itsa():
    """Import itsa from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "itsa", "__init__.py")):
        print(f"perfbench: no itsa sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import itsa

    if os.path.dirname(os.path.dirname(os.path.abspath(itsa.__file__))) != SRC:
        print(f"perfbench: imported itsa from {itsa.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return itsa


class ReferenceTask:
    """Fixed small-array NumPy work (least squares on 120 x 6) that does not use itsa.

    Its time, taken right before and right after a measurement, tells how
    fast the host runs at that moment. itsa analyses are made of the same
    many small NumPy calls, so a slow stretch slows both alike: over 5-s
    windows of one process, analysis time / task time spread 1 to 2 % while
    the analysis time alone spread 20 %.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(120, 6))
        self._y = rng.normal(size=120)

    def time_s(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.lstsq(self._a, self._y, rcond=None)
            np.dot(self._a.T, self._a)
        return time.perf_counter() - t0

    def median_s(self, repeats: int = 5) -> float:
        return statistics.median(self.time_s() for _ in range(repeats))

    def scale(self, elapsed: float, before: float, after: float) -> float:
        """`elapsed` in seconds at the speed where the task takes REFERENCE_MS."""
        return elapsed * (REFERENCE_MS * 1e-3) / ((before + after) / 2.0)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------------ setup


def measure_setup(workload: str, seed: int, reference: ReferenceTask):
    """Run SETUP_RUNS fresh interpreters.

    Returns their set-up times as measured, the same times scaled by the
    reference task timed before and after each interpreter, and the failures.
    """
    times, scaled, failed = [], [], 0
    for _ in range(SETUP_RUNS):
        try:
            before = reference.median_s()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            )
            after = reference.median_s()
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(report["setup_s"])
            scaled.append(reference.scale(report["setup_s"], before, after))
            failed += report["failed"]
        except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as exc:
            print(f"setup child failed: {exc!r}", file=sys.stderr)
            failed += 1
    return times, scaled, failed


# ------------------------------------------------------------------- loop


class Counter:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.scaled: list[float] = []  # checked analyses' times scaled by the reference task

    def run_checked(self, workload, inp, tracer=None, analysis_id=None,
                    reference: ReferenceTask | None = None) -> float | None:
        """One analysis plus its check; its wall time in seconds, or None if it failed.

        With a `reference`, the reference task runs right before and right
        after the analysis, and the time scaled by it is kept in `scaled`.
        """
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
                tracer.analysis = analysis_id
            before = reference.time_s() if reference else 0.0
            t0 = time.perf_counter()
            result = workload.analyse(inp)
            elapsed = time.perf_counter() - t0
            after = reference.time_s() if reference else 0.0
        except Exception:  # a failed analysis is counted, and the loop goes on
            self._fail(traceback.format_exc())
            return None
        finally:
            if tracer is not None:
                tracer.analysis = None
                tracer.uninstall()
        problems = workload.check(inp, result)
        if problems:
            self._fail("; ".join(problems))
            return None
        if reference:
            self.scaled.append(reference.scale(elapsed, before, after))
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: (value, percentile).

    With ten samples or fewer there is no such percentile; the maximum is
    returned, labelled 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(workload, inputs, seconds: float, counter: Counter,
                 reference: ReferenceTask) -> list[float]:
    """Analyses as measured; their scaled times go to `counter.scaled`."""
    samples: list[float] = []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not samples:
        elapsed = counter.run_checked(workload, inputs[i % len(inputs)], reference=reference)
        i += 1
        if elapsed is not None:
            samples.append(elapsed)
        elif counter.failed > 10 and not samples:
            break
    return samples


def run_traced(workload, inputs, seconds: float, counter: Counter, tracer):
    """Alternate traced and untraced analyses of the same inputs."""
    traced: dict[int, float] = {}
    untraced: list[float] = []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not (traced and untraced):
        inp = inputs[(i // 2) % len(inputs)]
        if i % 4 in (0, 3):  # traced first on even pairs, second on odd ones
            elapsed = counter.run_checked(workload, inp, tracer, i)
            if elapsed is not None:
                traced[i] = elapsed
        else:
            elapsed = counter.run_checked(workload, inp)
            if elapsed is not None:
                untraced.append(elapsed)
        i += 1
        if counter.failed > 10 and not (traced and untraced):
            break
    return traced, untraced


# ---------------------------------------------------------------- metrics


def end_to_end_metrics(setup_scaled, counter) -> dict:
    """The gated metrics: times are scaled, so they stay put while the host's speed swings."""
    return {
        "analysis_norm_ms": (_median(counter.scaled) * 1e3, "ms"),
        "setup_s": (_median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": ((counter.attempted - counter.failed) / counter.attempted, "ratio"),
    }


def latency_metrics(samples) -> dict:
    """Median, tail and throughput over all analyses: what a user sees, host noise included."""
    if not samples:  # every analysis failed
        return {"analysis.p50_ms": (0.0, "ms"), "analysis.tail_ms": (0.0, "ms"),
                "analysis.per_s": (0.0, "1/s")}
    return {
        "analysis.p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "analysis.tail_ms": (tail(samples)[0] * 1e3, "ms"),
        "analysis.per_s": (len(samples) / sum(samples), "1/s"),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(per: dict, traced: dict, untraced: list) -> dict:
    """Medians per traced analysis; ratios pooled over the run."""
    rows = list(per.values())

    def med(get) -> float:
        return _median([get(r) for r in rows])

    def fn(kind, name):
        return lambda r: r[kind].get(name, 0)

    def layer(name, key):
        return lambda r: r["layers"][name][key]

    def total(key):
        return sum(r["counts"].get(key, 0) for r in rows)

    fits = sum(r["fn_calls"].get("arx.fit_arx", 0) for r in rows)
    m = {
        "arx.select_ms": (med(fn("fn_ms", "arx.select_baseline")), "ms"),
        "arx.fit_ms": (med(fn("fn_self_ms", "arx.fit_arx")), "ms"),
        "arx.fits": (med(fn("fn_calls", "arx.fit_arx")), "count"),
        "arx.lrt_ms": (med(fn("fn_ms", "arx.likelihood_ratio_test")), "ms"),
        "arx.converged_ratio": (_ratio(total("arx.fit_arx:converged"), fits), "ratio"),
        "arx.admissible_ratio": (_ratio(total("arx.select_baseline:admissible"),
                                        total("arx.select_baseline:candidates")), "ratio"),
        "diagnostics.dw_p_ms": (med(fn("fn_ms", "diagnostics.dw_p_value")), "ms"),
        "diagnostics.acf_ms": (med(fn("fn_ms", "diagnostics.acf")), "ms"),
        "diagnostics.ljung_box_ms": (med(fn("fn_ms", "diagnostics.ljung_box")), "ms"),
        "diagnostics.calls": (med(layer("diagnostics", "calls")), "count"),
        "effect.self_ms": (med(layer("effect", "self_ms")), "ms"),
        "effect.weeks": (med(lambda r: r["counts"].get("effect.effect_series:weeks", 0)
                             + r["counts"].get("effect.effect_at:weeks", 0)), "count"),
        "distributions.self_ms": (med(layer("distributions", "self_ms")), "ms"),
        "distributions.calls": (med(layer("distributions", "calls")), "count"),
        "dataset.parse_ms": (med(fn("fn_ms", "dataset.parse_csv")), "ms"),
        "dataset.write_ms": (med(fn("fn_ms", "dataset.TimeSeriesDataset.to_csv")), "ms"),
        "dataset.rows": (med(lambda r: r["counts"].get("dataset.parse_csv:rows", 0)
                             + r["counts"].get("dataset.TimeSeriesDataset.to_csv:rows", 0)),
                         "count"),
        "design.build_ms": (med(fn("fn_ms", "design.build_design")), "ms"),
        "design.calls": (med(layer("design", "calls")), "count"),
        "ols.fit_ms": (med(fn("fn_ms", "ols.fit_ols")), "ms"),
        "ols.calls": (med(layer("ols", "calls")), "count"),
        "cli.self_ms": (med(layer("cli", "self_ms")), "ms"),
        "cli.calls": (med(layer("cli", "calls")), "count"),
    }
    for name in ("dataset", "design", "ols", "diagnostics", "arx"):
        m[f"{name}.self_ms"] = (med(layer(name, "self_ms")), "ms")
    wall_ms = sum(traced[a] for a in per) * 1e3
    m["trace.coverage_ratio"] = (_ratio(sum(r["top_ms"] for r in rows), wall_ms), "ratio")
    m["trace.overhead_ratio"] = (_ratio(_median(list(traced.values())), _median(untraced)),
                                 "ratio")
    m.update(latency_metrics(untraced))
    return m


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_itsa()
    import spans
    import workloads

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    reference = ReferenceTask()
    probe_before = reference.median_s() * 1e3
    setup_times, setup_scaled, setup_failed = (
        ([], [], 0) if args.trace else measure_setup(args.workload, args.seed, reference))

    counter = Counter()
    counter.attempted += len(setup_times) + setup_failed
    counter.failed += setup_failed
    inputs = workload.make_inputs(args.seed)
    counter.run_checked(workload, inputs[0])  # warm-up, untimed

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "setup_runs_s": setup_times, "setup_runs_scaled_s": setup_scaled}
    if args.trace:
        tracer = spans.Tracer()
        traced, untraced = run_traced(workload, inputs, args.seconds, counter, tracer)
        per = tracer.per_analysis(list(traced))
        metrics = per_layer_metrics(per, traced, untraced)
        spans_path = os.path.join(OUTPUT_DIR, f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(spans_path)
        info.update(traced_analyses=len(traced), untraced_analyses=len(untraced),
                    spans=len(tracer.start_col), spans_file=os.path.relpath(spans_path, ROOT))
    else:
        samples = run_untraced(workload, inputs, args.seconds, counter, reference)
        metrics = end_to_end_metrics(setup_scaled, counter)
        info.update({k: v for k, (v, _) in latency_metrics(samples).items()},
                    samples=len(samples), tail_percentile=tail(samples)[1] if samples else 0.0,
                    failed_ratio=counter.failed / counter.attempted)
        record_path = os.path.join(OUTPUT_DIR, f"samples-{args.workload}-{args.seed}.json")
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"samples_ms": [s * 1e3 for s in samples]}, fh)
    info.update(reference_task_ms={"before": probe_before, "after": reference.median_s() * 1e3},
                attempted=counter.attempted, failed=counter.failed,
                failures=counter.messages)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<26} {value:>14.4f} {unit}")
    if not args.trace:
        for name, (value, unit) in latency_metrics(samples).items():
            print(f"{args.workload:<12} {name:<26} {value:>14.4f} {unit}  (not gated)")
        print(f"{args.workload:<12} {'analysis.tail_ms percentile':<26} "
              f"{info['tail_percentile']:>14.4f} of {len(samples)} analyses")
        print(f"{args.workload:<12} {'failed_ratio':<26} {info['failed_ratio']:>14.4f} ratio"
              f"  ({counter.failed} of {counter.attempted})")
    for message in counter.messages:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
