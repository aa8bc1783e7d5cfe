"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's side of each layer boundary: while
``Tracer.instrument`` is active, every public function of the instrumented
kbound modules is replaced, on its module, by a wrapper that opens a span.
Calls that go through the module attribute (``lanczos.run_lanczos(...)``
from the benchmark or from ``kbound.cli``) are recorded, nested under the
span that was open when they started; calls bound by ``from .x import y``
inside the package, and calls made in worker processes, are not.  Spans stay
in memory and are written out as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import types
from contextlib import contextmanager

LAYERS = ("operators", "lanczos", "dynamics", "algebras", "ensembles", "cli")

# Result-derived counts recorded on a span, by span name.
COUNTS = {
    "lanczos.run_lanczos": lambda r: {"coeffs": int(r.b.size)},
    "dynamics.evolve_amplitudes": lambda r: {"cells": int(r.phi.size)},
}
# Spans that measure their tracemalloc peak (numpy reports its buffers).
MEMORY = {"lanczos.run_lanczos", "dynamics.evolve_amplitudes"}


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.captured: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        measure = name in MEMORY and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        try:
            yield rec
        finally:
            if measure:
                rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, capture: set):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if name in COUNTS:
                    rec.update(COUNTS[name](result))
                if name in capture:
                    self.captured[name] = result
                return result
        return wrapper

    @contextmanager
    def instrument(self, package, capture=()):
        """Wrap the public functions of each layer module while active.

        ``capture`` names spans whose return value is kept in
        ``self.captured`` (the benchmark needs some objects the CLI builds).
        """
        saved = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn, set(capture)))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
            fh.write("\n")


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    The traced run is single-threaded, so children never overlap.
    """
    out = {rec["id"]: _duration(rec) for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            out[rec["parent"]] -= _duration(rec)
    return out


def _total(spans, *names) -> float:
    return sum(_duration(r) for r in spans if r["name"] in names)


def _descendants(spans, root_id) -> list[dict]:
    children: dict[int, list[dict]] = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)
    out, stack = [], [root_id]
    while stack:
        for rec in children.get(stack.pop(), []):
            out.append(rec)
            stack.append(rec["id"])
    return out


def _artifact_mb(spans, layer) -> float:
    """Size of the artifacts a layer wrote, as the benchmark recorded them."""
    return sum(r["artifact_mb"] for r in spans if r.get("artifact_layer") == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(spans: list[dict], workers: int = 1) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer did not run."""
    m: dict[str, float] = {}
    by = {rec["id"]: rec for rec in spans}

    run_s = _total(spans, "lanczos.run_lanczos")
    coeffs = sum(r.get("coeffs", 0) for r in spans if r["name"] == "lanczos.run_lanczos")
    m["lanczos.run_s"] = run_s
    m["lanczos.coeffs"] = coeffs
    m["lanczos.coeffs_per_s"] = _ratio(coeffs, run_s)
    m["lanczos.peak_alloc_mb"] = max(
        (r.get("peak_mb", 0.0) for r in spans if r["name"] == "lanczos.run_lanczos"), default=0.0)
    m["lanczos.ortho_report_s"] = _total(spans, "lanczos.orthogonality_report")
    m["lanczos.save_json_s"] = _total(spans, "lanczos.save_result_json")
    m["lanczos.load_json_s"] = _total(spans, "lanczos.load_result_json")
    m["lanczos.artifact_mb"] = _artifact_mb(spans, "lanczos")

    loads = ("operators.load_hamiltonian", "operators.load_matrix")
    m["operators.load_s"] = sum(
        _duration(r) for r in spans if r["name"] in loads
        and (r["parent"] is None or by[r["parent"]]["name"] not in loads))
    m["operators.thermal_spec_s"] = _total(spans, "operators.InnerProductSpec")

    evolve_s = _total(spans, "dynamics.evolve_amplitudes")
    cells = sum(r.get("cells", 0) for r in spans if r["name"] == "dynamics.evolve_amplitudes")
    m["dynamics.evolve_s"] = evolve_s
    m["dynamics.amplitude_cells"] = cells
    m["dynamics.cells_per_s"] = _ratio(cells, evolve_s)
    m["dynamics.peak_alloc_mb"] = max(
        (r.get("peak_mb", 0.0) for r in spans if r["name"] == "dynamics.evolve_amplitudes"),
        default=0.0)
    fam = [r for r in spans if "family_attempts" in r]
    attempts = sum(r["family_attempts"] for r in fam)
    requested = sum(r["family_sites_requested"] for r in fam)
    m["dynamics.family_attempts"] = attempts
    m["dynamics.family_sites_requested"] = requested
    m["dynamics.growth_efficiency"] = _ratio(sum(r["family_sites_final"] for r in fam), requested)
    m["dynamics.profile_s"] = _total(spans, "dynamics.complexity_profile")

    m["algebras.model_amplitudes_s"] = _total(spans, "algebras.model_amplitudes")
    m["algebras.closure_s"] = _total(spans, "algebras.closure_test")

    pooled = _total(spans, "ensembles.run_ensemble")
    m["ensembles.sample_s"] = _total(spans, "ensembles.goe_sample")
    m["ensembles.observable_s"] = _total(spans, "ensembles.uniform_observable")
    m["ensembles.run_s"] = pooled
    m["ensembles.parallel_efficiency"] = _ratio(
        _total(spans, "bench.replay_realization"), workers * pooled)
    m["ensembles.save_json_s"] = _total(spans, "ensembles.save_ensemble_json")
    m["ensembles.artifact_mb"] = _artifact_mb(spans, "ensembles")

    m["cli.goe_s"] = _total(spans, "cli.goe")
    m["cli.lanczos_s"] = _total(spans, "cli.lanczos")
    m["cli.bound_s"] = _total(spans, "cli.bound")
    overhead = 0.0
    for rec in spans:
        if rec["name"] == "cli.bound":
            inner = _total(_descendants(spans, rec["id"]),
                           "dynamics.evolve_amplitudes", "dynamics.complexity_profile")
            overhead += _duration(rec) - inner
    m["cli.bound_overhead_s"] = overhead

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for i, t in own.items()
                                   if by[i]["name"].startswith(layer + "."))
    return m
