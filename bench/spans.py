"""Span recorder for the traced benchmark child.

Wrappers are installed from outside the package, around its public entry
points, and rebound wherever a ``qcode`` module binds the wrapped object.
Every call becomes a span (name, start, end, parent) appended to in-memory
arrays; spans are reduced to per-layer self times and counts only when the
run ends.  A layer's self time is the duration of its spans minus the time
covered by their direct children, so the self times of all layers add up
to the time covered by the outermost spans.

An entry point that a later version of the package no longer has is
skipped: its counts read 0 and nothing fails.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from array import array

IDENTITY_IDS = (5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19)
LAYERS = ("field", "quadform", "counting", "cyclotomic", "codes",
          "predictor", "cli")

# (layer, module, owner class or None, attribute)
ENTRY_POINTS = (
    ("field", "qcode.field", "ExtField", "__init__"),
    ("quadform", "qcode.quadform", None, "analyze"),
    ("quadform", "qcode.quadform", "QuadraticFunction", "values"),
    ("quadform", "qcode.quadform", "QuadraticFunction", "evaluate"),
    ("quadform", "qcode.quadform", "FormAnalysis", "solve_xb"),
    ("quadform", "qcode.quadform", "FormAnalysis", "in_shifted_image"),
    ("counting", "qcode.counting", None, "predict_hyperplane_root_count"),
    ("counting", "qcode.counting", None, "predict_root_count"),
    ("counting", "qcode.counting", None, "lemma_oracle"),
    ("counting", "qcode.counting", None, "lemma_sweep"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "__add__"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "__sub__"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "__neg__"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "__mul__"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "__pow__"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "scale"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "sigma"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "zero"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "from_rational"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "zeta_pow"),
    ("cyclotomic", "qcode.cyclotomic", "CycNum", "from_exponent_counts"),
    ("cyclotomic", "qcode.cyclotomic", None, "sigma_unit_sum"),
    ("cyclotomic", "qcode.cyclotomic", None, "pstar"),
    ("cyclotomic", "qcode.cyclotomic", None, "pstar_fraction_power"),
    ("cyclotomic", "qcode.cyclotomic", None, "pstar_half_power"),
    ("codes", "qcode.codes", None, "defining_set"),
    ("codes", "qcode.codes", None, "weight_distribution"),
    ("predictor", "qcode.predictor", None, "classify"),
    ("predictor", "qcode.predictor", None, "predict_length"),
    ("predictor", "qcode.predictor", None, "predict_distribution"),
    ("predictor", "qcode.predictor", None, "verify"),
    ("predictor", "qcode.predictor", None, "theorem_sweep"),
    ("cli", "qcode.cli", None, "main"),
)

# layers whose peak allocation the memory pass records
MEMORY_LAYERS = ("field", "codes")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["field.calls", "field.peak_alloc_mb",
              "quadform.evaluate_calls", "quadform.solve_xb_calls",
              "quadform.solve_xb_distinct_ratio",
              "counting.hyperplane_calls", "counting.root_count_calls",
              "counting.oracle_calls"]
    names += [f"counting.lemma_{i}_s" for i in IDENTITY_IDS]
    names += ["cyclotomic.mul_calls", "codes.weight_distribution_calls",
              "codes.peak_alloc_mb", "predictor.verify_calls",
              "trace.wall_s", "trace.overhead_s"]
    return names


def _rebind(original, replacement) -> None:
    """Point every qcode module attribute bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "qcode" and not name.startswith("qcode."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _install(wrap) -> None:
    """Replace each entry point by wrap(layer, span_name, function)."""
    for layer, modname, owner, attr in ENTRY_POINTS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            continue
        host = getattr(module, owner, None) if owner else module
        if host is None:
            continue
        raw = vars(host).get(attr) if owner else getattr(host, attr, None)
        if raw is None:
            continue
        span_name = f"{owner}.{attr}" if owner else attr
        if isinstance(raw, classmethod):
            setattr(host, attr, classmethod(wrap(layer, span_name, raw.__func__)))
        elif owner:
            setattr(host, attr, wrap(layer, span_name, raw))
        else:
            _rebind(raw, wrap(layer, span_name, raw))


class SpanRecorder:
    """Time spans of every wrapped call; reduce them when the run ends."""

    def __init__(self):
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._layer_of: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._xb_keys: set = set()
        self._keep_alive: dict = {}

    def _name_id(self, name: str, layer: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self._names)
            self._names.append(name)
            self._layer_of.append(layer)
        return idx

    def install(self) -> None:
        _install(self._wrap)

    def _wrap(self, layer: str, span_name: str, fn):
        clock = time.perf_counter
        stack, name_ids, parents = self._stack, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        fixed_id = self._name_id(span_name, layer)
        name_id = self._name_id
        xb_keys, keep = self._xb_keys, self._keep_alive
        by_lemma = span_name == "lemma_oracle"
        is_solve_xb = span_name == "FormAnalysis.solve_xb"

        def wrapper(*args, **kwargs):
            if by_lemma:
                lemma_id = args[0] if args else kwargs.get("lemma_id")
                nid = name_id(f"lemma_oracle:{lemma_id}", layer)
            else:
                nid = fixed_id
            if is_solve_xb:
                form, b = args[0], args[1] if len(args) > 1 else kwargs.get("b")
                keep[id(form)] = form  # ids of live forms are never reused
                xb_keys.add((id(form), b))
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def span_summary(self) -> dict:
        """Per span name: call count, inclusive and self seconds."""
        n = len(self.starts)
        child_time = [0.0] * n
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        out = {name: {"layer": self._layer_of[i], "calls": 0,
                      "total_s": 0.0, "self_s": 0.0}
               for i, name in enumerate(self._names)}
        for i in range(n):
            row = out[self._names[self.name_ids[i]]]
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += durations[i] - child_time[i]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (memory ones excluded)."""
        spans = self.span_summary()

        def calls(*names):
            return sum(spans.get(n, {}).get("calls", 0) for n in names)

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for row in spans.values():
            out[f"{row['layer']}.self_s"] += row["self_s"]
        xb_calls = calls("FormAnalysis.solve_xb")
        out.update({
            "field.calls": calls("ExtField.__init__"),
            "quadform.evaluate_calls": calls("QuadraticFunction.evaluate",
                                             "QuadraticFunction.values"),
            "quadform.solve_xb_calls": xb_calls,
            "quadform.solve_xb_distinct_ratio":
                len(self._xb_keys) / xb_calls if xb_calls else 0.0,
            "counting.hyperplane_calls": calls("predict_hyperplane_root_count"),
            "counting.root_count_calls": calls("predict_root_count"),
            "counting.oracle_calls": sum(
                row["calls"] for name, row in spans.items()
                if name.startswith("lemma_oracle:")),
            "cyclotomic.mul_calls": calls("CycNum.__mul__"),
            "codes.weight_distribution_calls": calls("weight_distribution"),
            "predictor.verify_calls": calls("verify"),
        })
        for i in IDENTITY_IDS:
            out[f"counting.lemma_{i}_s"] = spans.get(
                f"lemma_oracle:{i}", {}).get("total_s", 0.0)
        return out


class AllocRecorder:
    """Peak traced allocation inside the field and codes entry points.

    tracemalloc runs only inside the outermost such call, so the rest of
    the run is not slowed; this is a pass of its own because the
    allocation hooks would inflate the self times of a timing pass.
    """

    def __init__(self):
        self.peak_mb = {layer: 0.0 for layer in MEMORY_LAYERS}

    def install(self) -> None:
        _install(self._wrap)

    def _wrap(self, layer: str, span_name: str, fn):
        if layer not in MEMORY_LAYERS:
            return fn
        peak_mb = self.peak_mb

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peak_mb[layer] = max(peak_mb[layer], peak)

        return wrapper

    def metrics(self) -> dict:
        return {f"{layer}.peak_alloc_mb": mb for layer, mb in self.peak_mb.items()}
