"""Span tracing of the itsa layers, installed from outside the package.

`Tracer.install()` replaces every public function of every loaded
`itsa.*` module, at every name it is bound to (so `itsa.effect.normal_quantile`
and `itsa.distributions.normal_quantile` are both wrapped), and every public
method and property of the classes those modules define. A span is recorded
only while an analysis is open (`Tracer.analysis` is not None), so checks
and input generation between analyses leave no spans. `uninstall()` puts
the original objects back.

Spans live in flat in-memory arrays: name, start, end (ns), parent span,
analysis id. The layer of a span is the module that defines the function.
A span's self time is its duration minus the duration of its direct
children, which run inside it one after another.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

import numpy as np

# Counts read off return values at the boundary where the work happens.
# An observer marked outermost counts only when its span is not nested in
# another span of the same layer (effect_series calls effect_at per week).
OBSERVERS = {
    "arx.fit_arx": (False, lambda r, args: {
        "converged": int(bool(getattr(r, "converged", False)))}),
    "arx.select_baseline": (False, lambda r, args: {
        "candidates": len(getattr(r, "trace", ())),
        "admissible": sum(bool(getattr(c, "admissible", False))
                          for c in getattr(r, "trace", ()))}),
    "dataset.parse_csv": (False, lambda r, args: {"rows": len(r)}),
    "dataset.TimeSeriesDataset.to_csv": (False, lambda r, args: {"rows": len(args[0])}),
    "effect.effect_series": (True, lambda r, args: {
        "weeks": len(getattr(r, "estimates", ()))}),
    "effect.effect_at": (True, lambda r, args: {"weeks": 1}),
}

LAYERS = ("cli", "dataset", "design", "ols", "diagnostics", "arx", "effect", "distributions")


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.analysis_col = array("q")
        self.extras: dict[int, dict] = {}
        self.stack: list[int] = []
        self.analysis: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, int], object] = {}

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        key = (name, id(fn))
        if key not in self._wrappers:
            self._wrappers[key] = self._make_wrapper(name, fn)
        return self._wrappers[key]

    def _make_wrapper(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        observe = OBSERVERS.get(name, (False, None))[1]
        clock = time.perf_counter_ns
        stack, extras = self.stack, self.extras
        names_, starts, ends = self.name_col, self.start_col, self.end_col
        parents, analyses = self.parent_col, self.analysis_col
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            aid = tracer.analysis
            if aid is None:
                return fn(*args, **kwargs)
            index = len(starts)
            names_.append(name_id)
            parents.append(stack[-1] if stack else -1)
            analyses.append(aid)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                extras[index] = observe(result, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap itsa's public functions and class members at every binding site."""
        if self._undo:
            return
        modules = sorted((n, m) for n, m in sys.modules.items()
                         if m is not None and (n == "itsa" or n.startswith("itsa.")))
        for _, module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and _public(obj.__name__) \
                        and obj.__module__.startswith("itsa."):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    self._replace(module, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
                elif isinstance(obj, type) and obj.__module__ == module.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, module.__name__.rsplit(".", 1)[1])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._replace(cls, attr, self._wrap(name, member))
            elif isinstance(member, property) and member.fget is not None:
                self._replace(cls, attr, property(self._wrap(name, member.fget),
                                                  member.fset, member.fdel, member.__doc__))
            elif isinstance(member, (classmethod, staticmethod)):
                self._replace(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def write(self, path: str) -> None:
        """All spans as one .npz of columns, with the span names and observer counts."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            analysis=np.frombuffer(self.analysis_col, dtype=np.int64),
            counts=np.array(json.dumps({str(i): c for i, c in self.extras.items()})),
        )

    def per_analysis(self, analysis_ids: list[int]) -> dict[int, dict]:
        """Times (ms) and counts of each analysis, keyed by analysis id.

        `fn_ms` is the inclusive time of each function, `fn_self_ms` its self
        time, `layers` the self time and span count of each layer, `top_ms`
        the time inside outermost spans, and `counts` the observer counts
        keyed `<function>:<count>`.
        """
        def column(col: array) -> np.ndarray:
            return np.frombuffer(col, dtype=np.int64).copy()

        name, parent, aid = column(self.name_col), column(self.parent_col), column(self.analysis_col)
        dur = (column(self.end_col) - column(self.start_col)) / 1e6
        nested = parent >= 0
        self_ms = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        prefixes = [n.split(".", 1)[0] for n in self.names]
        layer_of = np.array([LAYERS.index(p) if p in LAYERS else len(LAYERS) for p in prefixes],
                            dtype=np.int64)
        span_layer = layer_of[name]
        n_names, n_layers = len(self.names), len(LAYERS) + 1

        out = {}
        for a in analysis_ids:
            m = aid == a
            fn_ms = np.bincount(name[m], weights=dur[m], minlength=n_names)
            fn_self = np.bincount(name[m], weights=self_ms[m], minlength=n_names)
            fn_calls = np.bincount(name[m], minlength=n_names)
            layer_self = np.bincount(span_layer[m], weights=self_ms[m], minlength=n_layers)
            layer_calls = np.bincount(span_layer[m], minlength=n_layers)
            used = [j for j in range(n_names) if fn_calls[j]]
            out[a] = {
                "top_ms": float(dur[m & ~nested].sum()),
                "layers": {layer: {"self_ms": float(layer_self[j]), "calls": int(layer_calls[j])}
                           for j, layer in enumerate(LAYERS)},
                "fn_ms": {self.names[j]: float(fn_ms[j]) for j in used},
                "fn_self_ms": {self.names[j]: float(fn_self[j]) for j in used},
                "fn_calls": {self.names[j]: int(fn_calls[j]) for j in used},
                "counts": {},
            }
        for i, values in self.extras.items():
            a = int(aid[i])
            if a not in out:
                continue
            fn = self.names[name[i]]
            outermost = OBSERVERS[fn][0]
            if outermost and parent[i] >= 0 and span_layer[parent[i]] == span_layer[i]:
                continue
            counts = out[a]["counts"]
            for key, value in values.items():
                counts[f"{fn}:{key}"] = counts.get(f"{fn}:{key}", 0) + value
        return out
