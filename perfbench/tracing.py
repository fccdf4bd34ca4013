"""Out-of-process-style tracing of signalwall from the benchmark's own code.

The program is not edited.  ``Tracer.install`` replaces module-level
functions (and public methods of classes defined in the package) with thin
wrappers that record one span per call: name, start, end, parent span and
run id.  Every binding is wrapped, including names a module imported from
another one (``design_sweep.solve_steady_state``, ``cli.solve_steady_state``),
so a call is seen whichever module makes it.  Spans stay in memory until
``write`` is called; ``restore`` puts every original object back.

A span is named ``<layer>.<function>`` after the module that defines the
function, so a call is attributed to the layer that does the work.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "materials",
    "layered_em",
    "fdtd",
    "thermal",
    "antenna_link",
    "inverse",
    "design_sweep",
    "cli",
    "scenario",
)

# private module-level names that are layer entry points: inverse imports
# _tmm_linear from layered_em, and _time_step_batch is the FDTD time loop
PRIVATE_ENTRY_POINTS = {"_tmm_linear", "_time_step_batch"}

PERMITTIVITY_EVALS = {
    "materials.Material.complex_permittivity",
    "materials.Material.permittivity_at",
    "materials.permittivity_at",
}


# unit of every metric ``layer_metrics`` returns
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "thermal.solves": "count",
    "thermal.unconverged": "count",
    "thermal.solve_s": "s",
    "thermal.cg_iterations": "count",
    "thermal.s_per_iteration": "s",
    "thermal.cells": "count",
    "thermal.voxelize_s": "s",
    "design_sweep.run_sweep_s": "s",
    "design_sweep.min_feasible_s": "s",
    "design_sweep.solves_per_separation": "ratio",
    "layered_em.points": "count",
    "layered_em.s_per_point": "s",
    "materials.evals": "count",
    "antenna_link.calls": "count",
    "antenna_link.s": "s",
    "inverse.objective_evals": "count",
    "inverse.s_per_eval": "s",
    "inverse.nm_iterations": "count",
    "inverse.starts_converged_ratio": "ratio",
    "inverse.read_s": "s",
    "fdtd.node_steps": "node-steps",  # runs x nodes x steps from the time loop's array sizes
    "fdtd.ns_per_node_step": "ns",
    "scenario.load_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solve_attrs(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    return {
        "cells": int(grid.n_cells),
        "sx_mm": float(grid.x_nodes_mm[-1]),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _tmm_attrs(args, kwargs, result):
    return {"points": int(np.atleast_1d(_arg(args, kwargs, 2, "f_ghz")).size)}


def _time_loop_attrs(args, kwargs, result):
    runs, nodes = np.shape(_arg(args, kwargs, 0, "eps"))
    steps = int(_arg(args, kwargs, 4, "n_steps"))
    return {"runs": int(runs), "nodes": int(nodes), "steps": steps, "node_steps": int(runs) * int(nodes) * steps}


def _fit_attrs(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "starts": len(result.starts),
        "starts_ok": sum(1 for s in result.starts if s["success"]),
    }


# span name -> function(args, kwargs, result) -> attributes kept on the span
ANNOTATORS = {
    "thermal.solve_steady_state": _solve_attrs,
    "layered_em._tmm_linear": _tmm_attrs,
    "fdtd._time_step_batch": _time_loop_attrs,
    "inverse.fit_permittivity": _fit_attrs,
}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    run_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps package functions, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, modules) -> int:
        """Wrap every layer function bound in ``modules``; returns the count."""
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    name = self._span_name(obj)
                    if name and (not attr.startswith("_") or attr in PRIVATE_ENTRY_POINTS):
                        self._patch(module, attr, obj, name)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ and self._layer_of(obj):
                    for method_name, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not method_name.startswith("_"):
                            self._patch(obj, method_name, member, self._span_name(member))
        return len(self._patches)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @staticmethod
    def _layer_of(obj) -> str | None:
        package, _, layer = obj.__module__.partition(".")
        return layer if package == "signalwall" and layer in LAYERS else None

    def _span_name(self, func) -> str | None:
        layer = self._layer_of(func)
        return f"{layer}.{func.__qualname__}" if layer else None

    def _patch(self, owner, attr, original, name):
        if getattr(original, "__perfbench_original__", None) is not None:
            return
        setattr(owner, attr, self._wrap(original, name))
        self._patches.append((owner, attr, original))

    def _wrap(self, func, name):
        annotate = ANNOTATORS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1].span_id if stack else None
            span = Span(len(spans), parent, self.run_id, name, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = func
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines, one object per span, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "run": s.run_id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                if s.error:
                    record["error"] = True
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# span analysis


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.duration
    return [s.duration - child_time[s.span_id] for s in spans]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def work_sizes(spans: list[Span]) -> dict:
    """Sizes of the work as the traced calls received it."""
    sizes = {}
    cells = {f"{s.attrs['sx_mm']:g}mm": s.attrs["cells"] for s in spans if s.name == "thermal.solve_steady_state"}
    if cells:
        sizes["thermal_cells"] = dict(sorted(cells.items()))
    loops = {(s.attrs["runs"], s.attrs["nodes"], s.attrs["steps"]) for s in spans if s.name == "fdtd._time_step_batch"}
    if loops:
        sizes["fdtd_time_loops"] = [dict(zip(("runs", "nodes", "steps"), loop)) for loop in sorted(loops)]
    points = {s.attrs["points"] for s in spans if s.name == "layered_em._tmm_linear"}
    if points:
        sizes["tmm_points_per_call"] = sorted(points)
    return sizes


def layer_metrics(spans: list[Span], cycles: int, commands: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from one traced pass of ``cycles`` workload cycles.

    Counts and self times are per cycle; ``*_s`` of a single function is
    the median per call.  ``commands`` counts CLI calls by command name.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def enters(s: Span, layer: str) -> bool:
        return s.layer == layer and (s.parent_id is None or spans[s.parent_id].layer != layer)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _ratio(sum(t for s, t in zip(spans, selfs) if s.layer == layer), cycles)

    solves = named("thermal.solve_steady_state")
    iterations = sum(s.attrs["iterations"] for s in solves)
    m["thermal.solves"] = _ratio(len(solves), cycles)
    m["thermal.unconverged"] = _ratio(sum(not s.attrs["converged"] for s in solves), cycles)
    m["thermal.solve_s"] = _median([s.duration for s in solves])
    m["thermal.cg_iterations"] = _median([s.attrs["iterations"] for s in solves])
    m["thermal.s_per_iteration"] = _ratio(sum(s.duration for s in solves), iterations)
    m["thermal.cells"] = _median([s.attrs["cells"] for s in solves])
    m["thermal.voxelize_s"] = _median([s.duration for s in named("thermal.voxelize_unit_cell")])

    m["design_sweep.run_sweep_s"] = _median([s.duration for s in named("design_sweep.run_sweep")])
    m["design_sweep.min_feasible_s"] = _median([s.duration for s in named("design_sweep.min_feasible_separation")])
    ratios = []
    for sweep in named("cli.cmd_sweep"):
        inside = [s for s in solves if sweep.start <= s.start and s.end <= sweep.end]
        ratios.append(_ratio(len(inside), len({s.attrs["sx_mm"] for s in inside})))
    m["design_sweep.solves_per_separation"] = _median(ratios)

    tmm = named("layered_em._tmm_linear")
    points = sum(s.attrs["points"] for s in tmm)
    m["layered_em.points"] = _ratio(points, cycles)
    m["layered_em.s_per_point"] = _ratio(m["layered_em.self_s"] * cycles, points)
    m["materials.evals"] = _ratio(sum(1 for s in spans if s.name in PERMITTIVITY_EVALS and enters(s, "materials")), cycles)

    entries = [s for s in spans if enters(s, "antenna_link")]
    m["antenna_link.calls"] = _ratio(len(entries), cycles)
    m["antenna_link.s"] = _ratio(sum(s.duration for s in entries), cycles)

    fits = named("inverse.fit_permittivity")
    evals = named("inverse.slab_transmission")
    fit_commands = commands.get("fit-permittivity", 0)
    # each fit_permittivity call evaluates the model once more for its residual
    m["inverse.objective_evals"] = _ratio(len(evals) - len(fits), fit_commands)
    m["inverse.s_per_eval"] = _ratio(sum(s.duration for s in evals), len(evals))
    m["inverse.nm_iterations"] = _ratio(sum(s.attrs["iterations"] for s in fits), fit_commands)
    m["inverse.starts_converged_ratio"] = _ratio(sum(s.attrs["starts_ok"] for s in fits), sum(s.attrs["starts"] for s in fits))
    m["inverse.read_s"] = _median([s.duration for s in named("inverse.read_spectrum")])

    loops = named("fdtd._time_step_batch")
    node_steps = sum(s.attrs["node_steps"] for s in loops)
    m["fdtd.node_steps"] = _ratio(node_steps, commands.get("fdtd-validate", 0))
    m["fdtd.ns_per_node_step"] = _ratio(sum(s.duration for s in loops) * 1e9, node_steps)

    m["scenario.load_s"] = _median([s.duration for s in named("scenario.load_scenario")])
    assert m.keys() == UNITS.keys()
    return m
