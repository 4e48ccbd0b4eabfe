"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``mcf4d`` modules from outside the
package.  Inside an ``instrument`` block every module attribute bound to a
wrapped function is rebound to its wrapper -- including the names that
``flow``, ``geometry``, ``functionals`` and the other modules import from each
other -- and every binding is restored when the block exits.  Spans (name,
start, end, parent) are kept in memory; self time, hit ratios and computed
stencil work are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "mcf4d"
# Bytes of one float64, for the computed stencil traffic.
WORD = 8


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    error: bool = False
    extra: dict | None = None


class SpanRecorder:
    """In-memory list of spans; the open-span stack gives each span its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra=None):
        """Wrapper of ``fn`` that records one span per call.

        ``extra(args, kwargs, result)`` may attach counts to a span that
        returned normally; it runs after the span is closed.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(rec.spans), name, rec.clock(), 0.0,
                        rec._stack[-1] if rec._stack else None)
            rec.spans.append(span)
            rec._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = rec.clock()
                rec._stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        wrapper.bench_original = fn
        return wrapper

    def to_records(self) -> list[list]:
        return [[s.sid, s.name, s.start, s.end, s.parent, s.error, s.extra]
                for s in self.spans]

    def extend_records(self, records: list[list]) -> None:
        """Append spans recorded elsewhere (another process), re-numbered."""
        base = len(self.spans)
        for sid, name, start, end, parent, error, extra in records:
            self.spans.append(Span(base + sid, name, start, end,
                                   None if parent is None else base + parent,
                                   error, extra))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered_length(children[s.sid],
                                                      s.start, s.end)
            for s in spans}


def ancestors_of(spans: list[Span], name: str) -> set[int]:
    """Ids of the spans that enclose at least one span called ``name``."""
    by_id = {s.sid: s for s in spans}
    out = set()
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p not in out:
            out.add(p)
            p = by_id[p].parent
    return out


# --- what the traced run wraps -------------------------------------------

def _stencil_work(args, kwargs, result):
    """Dense (n, n) apply on a field with n * m entries: 2 n^2 m flops; the
    matrix, the field and the output are each moved once."""
    field, n = args[0], args[2]
    m = field.size // n
    return {"flops": 2 * n * n * m, "bytes": WORD * (n * n + 2 * n * m)}


def _geometry_j(args, kwargs, result):
    return {"j": result.nabla_bar_j2 is not None}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (layer name, module, attribute, extra); ``Class.method`` attributes are
# rebound on the class.
TARGETS = (
    ("stencils.axis_derivative", "stencils", "axis_derivative", _stencil_work),
    ("grid.position_derivatives", "grid", "position_derivatives", None),
    ("geometry.build_geometry", "geometry", "build_geometry", _geometry_j),
    ("geometry.laplace_beltrami", "geometry", "laplace_beltrami", None),
    ("geometry.gradient_sq", "geometry", "gradient_sq", None),
    ("geometry.normal_gradient_sq", "geometry", "normal_gradient_sq", None),
    ("geometry.nabla_bar_j2_filled", "geometry", "nabla_bar_j2_filled", None),
    ("flow.run_flow", "flow", "run_flow", None),
    ("flow.step", "flow", "step", None),
    ("flow.velocity", "flow", "velocity", None),
    ("flow.scalar_row", "flow", "scalar_row", None),
    ("flow.cfl_dt", "flow", "cfl_dt", None),
    ("flow.estimate_singular_time", "flow", "estimate_singular_time", None),
    ("flow.FlowTrace.bundle", "flow", "FlowTrace.bundle", None),
    ("flow.FlowTrace.curvature_a2", "flow", "FlowTrace.curvature_a2", None),
    ("functionals.monotonicity_scan", "functionals", "monotonicity_scan", None),
    ("functionals.evolution_residual", "functionals", "evolution_residual",
     None),
    ("functionals.weighted_integral_identity_check", "functionals",
     "weighted_integral_identity_check", None),
    ("functionals.pinching_check", "functionals", "pinching_check", None),
    ("functionals.localized_f", "functionals", "localized_f", None),
    ("rescale.select_blowup_datum", "rescale", "select_blowup_datum", None),
    ("rescale.rescale_flow", "rescale", "rescale_flow", None),
    ("rescale.validate_rescaled", "rescale", "validate_rescaled", None),
    ("theorem.check_main_theorem", "theorem", "check_main_theorem", None),
    ("theorem.normalize_flow", "theorem", "normalize_flow", None),
    ("theorem.gradient_estimate_probe", "theorem", "gradient_estimate_probe",
     None),
    ("scenarios.generate_scenario", "scenarios", "generate_scenario", None),
    ("scenarios.translating_trace", "scenarios", "translating_trace", None),
    ("io.write_snapshot", "io", "write_snapshot", _file_bytes),
    ("io.read_snapshot", "io", "read_snapshot", _file_bytes),
    ("io.write_timeseries", "io", "write_timeseries", _file_bytes),
    ("io.write_report", "io", "write_report", _file_bytes),
    ("cli.main", "cli", "main", None),
)

IO_FUNCTIONS = ("io.write_snapshot", "io.read_snapshot", "io.write_timeseries",
                "io.write_report")
CLI_SUBCOMMANDS = ("simulate", "monotonicity", "rescale", "theorem", "verify",
                   "cutoff-scan")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def package_bindings() -> dict:
    """Identity of every module-level and class-level binding of the package,
    for checking that instrumentation left nothing behind."""
    out = {}
    for mod in package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = id(member)
    return out


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Rebind every target to a span-recording wrapper; restore on exit."""
    restore = []
    try:
        owners = [importlib.import_module(f"{PACKAGE}.{mod_name}")
                  for _, mod_name, _, _ in TARGETS]
        modules = package_modules()
        for (name, _, attr, extra), module in zip(TARGETS, owners):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                restore.append((cls, meth, original))
                setattr(cls, meth, recorder.wrap(name, original, extra))
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# --- per-layer metrics -----------------------------------------------------

def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass."""
    selfs = self_times(spans)
    out = {}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    for name, _, _, _ in TARGETS:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.self_s"] = sum(selfs[s.sid] for s in group)
        out[f"{name}.errors"] = sum(1 for s in group if s.error)
    out["geometry.build_geometry.j_calls"] = sum(
        1 for s in by_name["geometry.build_geometry"]
        if s.extra and s.extra["j"])
    for name in IO_FUNCTIONS:
        out[f"{name}.bytes"] = sum(s.extra["bytes"] for s in by_name[name]
                                   if s.extra)
    stencil = [s.extra for s in by_name["stencils.axis_derivative"] if s.extra]
    out["stencils.flops_computed"] = sum(e["flops"] for e in stencil)
    out["stencils.bytes_computed"] = sum(e["bytes"] for e in stencil)

    builds = ancestors_of(spans, "geometry.build_geometry")
    for lookup in ("flow.FlowTrace.bundle", "flow.FlowTrace.curvature_a2"):
        group = by_name[lookup]
        hits = sum(1 for s in group if s.sid not in builds)
        out[f"{lookup}.hit_ratio"] = hits / len(group) if group else 0.0

    flows = by_name["flow.run_flow"]
    flow_ids = {s.sid for s in flows}
    flow_time = sum(s.end - s.start for s in flows)
    diag = sum(s.end - s.start for s in spans
               if s.parent in flow_ids and s.name in (
                   "geometry.build_geometry", "flow.scalar_row", "flow.cfl_dt"))
    out["flow.diagnostics_share"] = diag / flow_time if flow_time else 0.0
    steps = len(by_name["flow.step"])
    out["flow.rk4_steps"] = steps
    out["flow.steps_per_s"] = steps / flow_time if flow_time else 0.0
    return out


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric of a traced run: name -> (unit, which direction is
    better)."""
    out = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.errors"] = ("count", "lower")
    out["geometry.build_geometry.j_calls"] = ("count", "lower")
    for name in IO_FUNCTIONS:
        out[f"{name}.bytes"] = ("B", "lower")
    out["stencils.flops_computed"] = ("flop", "lower")
    out["stencils.bytes_computed"] = ("B", "lower")
    out["stencils.derivative_matrix.misses"] = ("count", "lower")
    out["flow.FlowTrace.bundle.hit_ratio"] = ("1", "higher")
    out["flow.FlowTrace.curvature_a2.hit_ratio"] = ("1", "higher")
    out["flow.diagnostics_share"] = ("1", "lower")
    out["flow.rk4_steps"] = ("count", "lower")
    out["flow.steps_per_s"] = ("1/s", "higher")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.total_s"] = ("s", "lower")
    out["trace.overhead_ratio"] = ("1", "lower")
    return out
