"""Per-layer tracing from outside the program.

The traced run replaces each layer-boundary function of wexpand with a
wrapper that records a span (name, scenario, parent, start, end) and the
counts visible at that boundary.  It patches every module global bound to
the function, not only its home module: ``cli`` imports
``imlm_reconstruct`` by name, so patching ``wexpand.tomography`` alone
misses the direct fit.  The originals are put back on exit.

Only the functions the layer table names are wrapped.  Wrapping their
helpers too (``optics.apply_element`` inside ``apply_circuit``, say) would
move the work out of the boundary's self time into a child span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from wexpand.tolerances import IMLM_MAX_ITER

# Per-layer metrics, "<module>.<function>" -> stats reported for it.  The
# keys are the wrapped functions.
LAYER_STATS = {
    "tomography.imlm_reconstruct": (
        "calls", "self_s", "p50_s", "p90_s", "iterations", "iterations.p50",
        "iterations.p90", "iterations.max", "s_per_iteration", "unconverged",
    ),
    "tomography.bootstrap_errors": ("self_s", "resamples"),
    "tomography.sample_counts": ("self_s",),
    "tomography.exact_counts": ("self_s",),
    "tomography.flux_for_typical_count": ("self_s",),
    "optics.apply_circuit": ("calls", "self_s", "terms_in", "terms_out"),
    "optics.apply_delay": ("calls", "self_s"),
    "gates.run_gate": ("calls", "self_s"),
    "sources.hom_scan": ("total_s",),
    "sources.calibrate_overlap_for_visibility": ("total_s",),
    "fock.postselect_qubits": ("calls", "self_s"),
    "fock.coincidence_probability": ("calls", "self_s"),
    "fock.tensor": ("calls", "self_s"),
    "entanglement.pairwise_eof_table": ("calls", "self_s"),
    "entanglement.witness_value": ("calls", "self_s"),
    "cli.run_scenario": ("self_s",),
    "cli.emit_report": ("total_s",),
}


def _fit_facts(arguments, result):
    return {
        "iterations": result.iterations,
        "unconverged": int(
            not result.converged or result.iterations == IMLM_MAX_ITER
        ),
    }


# Counts read at a boundary from its arguments and result.
_FACTS = {
    "tomography.imlm_reconstruct": _fit_facts,
    "tomography.bootstrap_errors": lambda a, r: {"resamples": a["n_resamples"]},
    "optics.apply_circuit": lambda a, r: {
        "terms_in": len(a["state"]), "terms_out": len(r)
    },
    "cli.emit_report": lambda a, r: {"report_bytes": len(r)},
}


@dataclass
class Span:
    name: str
    scenario: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    facts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _originals() -> dict[str, object]:
    originals = {}
    for name in LAYER_STATS:
        module, function = name.split(".")
        originals[name] = getattr(sys.modules["wexpand." + module], function)
    return originals


def bindings() -> list[tuple[object, str, str, object]]:
    """(module, global name, layer name, function) for every wexpand global
    bound to a layer-boundary function."""
    by_id = {id(fn): (name, fn) for name, fn in _originals().items()}
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "wexpand" and not mod_name.startswith("wexpand."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[1] is value:
                found.append((module, attr, hit[0], value))
    return found


class Tracer:
    """Collects spans while installed; ``scenario`` tags the spans of one
    scenario."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scenario = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        facts = _FACTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.scenario, parent)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if facts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.facts = facts(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        patches = bindings()
        wrappers = {}
        try:
            for module, attr, name, fn in patches:
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                setattr(module, attr, wrappers[name])
            yield self
        finally:
            for module, attr, _, fn in patches:
                setattr(module, attr, fn)


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_table(spans: list[Span], scenarios: int) -> dict[str, float]:
    """Per-layer metrics as per-scenario means over ``scenarios`` traced
    scenarios; percentiles are over single calls."""
    by_name: dict[str, list[Span]] = {name: [] for name in LAYER_STATS}
    for span in spans:
        by_name[span.name].append(span)

    def fact(group, key):
        return [s.facts.get(key, 0) for s in group]

    table = {}
    for name, stats in LAYER_STATS.items():
        group = by_name[name]
        self_s = sum(s.self_s for s in group)
        durations = [s.end - s.start for s in group]
        iterations = fact(group, "iterations") if "iterations" in stats else []
        values = {
            "calls": len(group) / scenarios,
            "self_s": self_s / scenarios,
            "total_s": sum(durations) / scenarios,
            "p50_s": _percentile(durations, 50),
            "p90_s": _percentile(durations, 90),
            "iterations.p50": _percentile(iterations, 50),
            "iterations.p90": _percentile(iterations, 90),
            "iterations.max": float(max(iterations, default=0)),
            "s_per_iteration": self_s / sum(iterations) if sum(iterations) else 0.0,
        }
        for stat in stats:
            if stat in values:
                table[f"{name}.{stat}"] = values[stat]
            else:
                table[f"{name}.{stat}"] = sum(fact(group, stat)) / scenarios
    table["cli.report_bytes"] = (
        sum(fact(by_name["cli.emit_report"], "report_bytes")) / scenarios
    )
    return table
