"""Tests of the benchmark's span recorder: self-time arithmetic, derived
ratios, and that instrumentation restores every mcf4d binding.

    python3 -m pytest bench
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402
from mcf4d import cli, flow, functionals, scenarios  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [Span(0, "a", 0.0, 10.0, None),
             Span(1, "b", 1.0, 3.0, 0),
             Span(2, "b", 2.0, 5.0, 0),      # overlaps its sibling
             Span(3, "c", 8.0, 12.0, 0),     # runs past the parent's end
             Span(4, "d", 1.5, 2.5, 1)]      # grandchild: only b loses it
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_recorder_nests_spans_and_sums_self_time():
    ticks = itertools.count()
    rec = tracer.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0)]
    assert tracer.self_times(rec.spans) == {0: 3.0, 1: 1.0, 2: 1.0}


def test_recorder_marks_errors_and_reraises():
    rec = tracer.SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0].error and rec.spans[0].end >= rec.spans[0].start
    assert rec._stack == []


def test_records_from_another_process_are_renumbered():
    rec = tracer.SpanRecorder()
    rec.extend_records([[0, "a", 0.0, 2.0, None, False, None]])
    rec.extend_records([[0, "b", 0.0, 2.0, None, False, None],
                        [1, "c", 0.5, 1.0, 0, False, None]])
    assert [(s.sid, s.parent) for s in rec.spans] == [(0, None), (1, None),
                                                      (2, 1)]


def test_instrument_rebinds_imported_names_and_restores_them():
    before = tracer.package_bindings()
    original_bundle = flow.FlowTrace.bundle
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.SpanRecorder()):
            assert hasattr(flow.build_geometry, "bench_original")
            assert hasattr(functionals.gradient_sq, "bench_original")
            assert hasattr(cli.run_flow, "bench_original")
            assert hasattr(flow.FlowTrace.bundle, "bench_original")
            raise RuntimeError("leave the block by an exception")
    assert tracer.package_bindings() == before
    assert flow.FlowTrace.bundle is original_bundle


def test_traced_flow_gives_steps_parents_and_hit_ratio():
    state = scenarios.clifford_torus(16, 16)
    rec = tracer.SpanRecorder()
    with tracer.instrument(rec):
        trace = flow.run_flow(state, flow.RunControls(dt=1e-4, max_steps=2))
        trace.bundle(0)
        trace.bundle(0)
    plain = flow.run_flow(state, flow.RunControls(dt=1e-4, max_steps=2))
    names = {s.sid: s.name for s in rec.spans}
    for s in rec.spans:
        if s.name == "flow.velocity":
            assert names[s.parent] == "flow.step"
        if s.name == "flow.step":
            assert names[s.parent] == "flow.run_flow"
    m = tracer.layer_metrics(rec.spans)
    assert m["flow.rk4_steps"] == 2 and m["flow.velocity.calls"] == 8
    assert m["flow.FlowTrace.bundle.hit_ratio"] == 0.5
    assert 0.0 < m["flow.diagnostics_share"] < 1.0
    # 5 derivatives per position_derivatives call, 16 nodes per axis
    assert m["stencils.axis_derivative.calls"] == \
        5 * m["grid.position_derivatives.calls"]
    assert m["stencils.flops_computed"] == \
        m["stencils.axis_derivative.calls"] * 2 * 16 * 16 * 16 * 4
    # Tracing does not change a result.
    assert (plain.states[-1].positions == trace.states[-1].positions).all()
    assert set(tracer.per_layer_metrics()) == set(m) | {
        "stencils.derivative_matrix.misses", "trace.overhead_ratio"} | {
        f"cli.{sub}.total_s" for sub in tracer.CLI_SUBCOMMANDS}


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == tracer.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
