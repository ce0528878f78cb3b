"""Spans around calls into memsynth's modules, recorded from the benchmark side.

Nothing inside ``src/`` is instrumented.  Each entry of ``TARGETS`` names a
function the way its callers look it up -- a module global such as
``memsynth.cli.decompose_load`` or a class attribute such as
``ChebyshevSeries.evaluate`` -- and ``Tracer.patched`` swaps in a wrapper
that records one span per call: name, start, end, parent span, operation id
and an optional work count.  Spans stay in memory and are written out once,
when the run ends.

A span's self time is its duration minus the time its direct child spans
cover.  The benchmark records the ``cli`` span itself around each call of
``memsynth.cli.main``, so ``cli`` self time is what ``main`` spends outside
every library span: argparse, JSON encode and decode, file writes and the
hysteresis line formatting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

MEMORY_KINDS = ("memristor", "meminductor", "memcapacitor")


def _branch_span(args, kwargs) -> str:
    kind = args[0].kind.value
    return "simulation.branch_current." + (kind if kind in MEMORY_KINDS else "lti")


def _waveform_mults(args, kwargs, result) -> int:
    samples, _, n_max = args[:3]
    return 2 * len(samples) * int(n_max)


def _coeff_points(args, kwargs, result) -> int:
    series, v = args[:2]
    return len(series.coeffs) * int(getattr(v, "size", 1))


def _samples(args, kwargs, result) -> int:
    return len(result.t)


def _compared(args, kwargs, result) -> int:
    return result.samples_per_period


def _csv_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


#: (module, attribute as callers look it up, span name, work count or None)
TARGETS: list[tuple[str, str, object, Optional[Callable]]] = [
    ("memsynth.loads", "LoadModel.spectrum", "loads.spectrum", None),
    ("memsynth.harmonics", "HarmonicSpectrum.from_dict", "harmonics.from_dict", None),
    ("memsynth.synthesis", "project_waveform", "harmonics.project_waveform", _waveform_mults),
    ("memsynth.synthesis", "evaluate_waveform", "harmonics.evaluate_waveform", None),
    ("memsynth.cli", "compute_powers", "harmonics.compute_powers", None),
    ("memsynth.cli", "fryze_split", "harmonics.fryze_split", None),
    ("memsynth.synthesis", "fryze_split", "harmonics.fryze_split", None),
    ("memsynth.chebyshev", "ChebyshevSeries.evaluate", "chebyshev.evaluate", _coeff_points),
    ("memsynth.chebyshev", "ChebyshevSeries.derivative", "chebyshev.derivative", None),
    ("memsynth.synthesis", "memductance_from_sines", "elements.synthesize", None),
    ("memsynth.synthesis", "inverse_meminductance_from_spectrum", "elements.synthesize", None),
    ("memsynth.synthesis", "memcapacitance_from_cosines", "elements.synthesize", None),
    ("memsynth.synthesis", "regularize", "elements.regularize", None),
    ("memsynth.synthesis", "element_from_dict", "elements.element_from_dict", None),
    ("memsynth.cli", "decompose_load", "synthesis.decompose", None),
    ("memsynth.synthesis", "decompose_load", "synthesis.decompose", None),
    ("memsynth.cli", "synthesize_conditioner", "synthesis.conditioner", None),
    ("memsynth.synthesis", "LoadDecomposition.to_dict", "synthesis.to_dict", None),
    ("memsynth.synthesis", "LoadDecomposition.from_dict", "synthesis.from_dict", None),
    ("memsynth.cli", "verify_decomposition", "synthesis.verify", _compared),
    ("memsynth.simulation", "supply_states", "simulation.supply_states", _samples),
    ("memsynth.cli", "supply_states", "simulation.supply_states", _samples),
    ("memsynth.simulation", "branch_current", _branch_span, None),
    ("memsynth.cli", "simulate", "simulation.simulate", None),
    ("memsynth.synthesis", "simulate", "simulation.simulate", None),
    ("memsynth.cli", "trace_to_csv", "simulation.trace_to_csv", _csv_bytes),
    ("memsynth.cli", "hysteresis_loop", "simulation.hysteresis_loop", None),
]

BRANCH_KINDS = MEMORY_KINDS + ("lti",)

#: spans reported as ``<span>_ms`` (inclusive time) and ``<span>.calls``
TIMED_SPANS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS if isinstance(name, str)))

#: work counts summed over the spans of one name: metric -> span
WORK_COUNTS = {
    "cli.bytes_written": "cli",
    "harmonics.project_waveform.mults": "harmonics.project_waveform",
    "chebyshev.evaluate.coeff_points": "chebyshev.evaluate",
    "simulation.samples": "simulation.supply_states",
    "simulation.csv_bytes": "simulation.trace_to_csv",
}

LAYERS = ("cli", "loads", "harmonics", "chebyshev", "elements", "synthesis", "simulation")


def unit(metric: str) -> str:
    if metric.endswith("_ms") or "_ms." in metric:
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


class Tracer:
    """In-memory span store.  One instance per run; not thread safe."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, op id, work count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: id of the operation whose spans are being recorded
        self.op: int = -1

    def call(self, name, fn, args, kwargs, work):
        if callable(name):
            name = name(args, kwargs)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
        if work is not None:
            record[5] = work(args, kwargs, result)
        return result

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced

    @contextmanager
    def patched(self):
        """Install a recording wrapper on every target; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, work in TARGETS:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, leaf)
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(name, original.__func__, work))
                else:
                    wrapper = self._wrap(name, original, work)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def aggregate(self, weight: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics and per-module self time, in ms.

        ``weight`` maps an operation id to the factor its spans count with
        (one over the number of passes of its phase), so every figure is per
        pass: one setup plus one round over the workload's inputs.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op, work in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, float] = {}
        work_sum: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        compared = simulated_in_verify = 0.0
        for index, (name, start, end, parent, op, work) in enumerate(spans):
            w = weight.get(op, 0.0)
            if not w:
                continue
            duration = (end - start) / 1e6
            own = duration - child_ns[index] / 1e6
            total[name] = total.get(name, 0.0) + w * duration
            calls[name] = calls.get(name, 0.0) + w
            work_sum[name] = work_sum.get(name, 0.0) + w * work
            self_ms[name] = self_ms.get(name, 0.0) + w * own
            layer_self[name.split(".", 1)[0]] += w * own
            if name == "synthesis.verify":
                compared += w * work
            elif name == "simulation.supply_states" and self._inside(index, "synthesis.verify"):
                simulated_in_verify += w * work

        metrics = {"cli.self_ms": self_ms.get("cli", 0.0), "cli.calls": calls.get("cli", 0.0)}
        for span in TIMED_SPANS:
            metrics[span + "_ms"] = total.get(span, 0.0)
            metrics[span + ".calls"] = calls.get(span, 0.0)
        for kind in BRANCH_KINDS:
            span = "simulation.branch_current." + kind
            metrics["simulation.branch_current_ms." + kind] = total.get(span, 0.0)
            metrics[span + ".calls"] = calls.get(span, 0.0)
        for metric, span in WORK_COUNTS.items():
            metrics[metric] = work_sum.get(span, 0.0)
        metrics["elements.regularized"] = calls.get("elements.regularize", 0.0)
        metrics["synthesis.verify.self_ms"] = self_ms.get("synthesis.verify", 0.0)
        metrics["synthesis.verify.useful_sample_ratio"] = (
            compared / simulated_in_verify if simulated_in_verify else 0.0
        )
        return metrics, layer_self

    def _inside(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """One JSON object per span; times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, work) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start - origin,
                    "end_ns": end - origin, "parent": parent, "op": op, "work": work,
                }) + "\n")
