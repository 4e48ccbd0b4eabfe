"""Normalization, extremal statistics, pinching verdicts, and the probe.

Closed-form anchors:
  - the shrinking square torus has cos(theta) reaching exactly -1 and, after
    curvature normalization, sup |H|^2 = sup |A|^2 = 1, so the Lagrangian
    pinching quantity is -exp(1/2);
  - the translating soliton ridge has tip curvature one and edge angle
    cosine cos(x_max), so its pinching quantity is cos(1.4) exp(1/2); it is
    a curve times a line, so |H|^2 = |A|^2 and its normalized h^2 is one;
  - on a static special-Lagrangian patch the probe diagnostic is identically
    one and both sides of the differential inequality vanish.
"""

import numpy as np
import pytest

from mcf4d import theorem
from mcf4d.errors import KindMismatch, ShortTrace, ZeroCurvature
from mcf4d.flow import FlowTrace, RunControls, TraceScalars, run_flow
from mcf4d.scenarios import plane, symplectic_graph
from mcf4d.theorem import (check_main_theorem, extremal_stats,
                           gradient_estimate_probe, normalize_flow)

from conftest import thin_trace


def _static_trace(state, times):
    states = [state.transformed(time=t) for t in times]
    return FlowTrace(states=states, state_steps=list(range(len(states))),
                     scalars=TraceScalars.from_rows([]),
                     termination_reason="reached_t_end")


def _stored_sup(trace):
    return max(float(trace.curvature_a2(i).max())
               for i in range(len(trace.states)))


def test_normalize_flow_sets_stored_sup_to_one(torus32_trace):
    thin = thin_trace(torus32_trace, 40)
    before = _stored_sup(thin)
    norm = normalize_flow(thin)
    assert norm["scale"] == pytest.approx(np.sqrt(before), rel=1e-12)
    assert _stored_sup(norm["trace"]) == pytest.approx(1.0, abs=1e-9)
    assert norm["trace"].meta["normalization_scale"] == norm["scale"]
    # Times scale parabolically.
    np.testing.assert_allclose(norm["trace"].times, before * thin.times,
                               rtol=1e-12)
    # Applying the normalization twice is the identity up to rounding.
    again = normalize_flow(norm["trace"])
    assert again["scale"] == pytest.approx(1.0, abs=1e-9)


def test_normalize_flow_rejects_flat_flows():
    flat = _static_trace(plane(16, 16), [0.0, 0.01])
    with pytest.raises(ZeroCurvature):
        normalize_flow(flat)
    with pytest.raises(ZeroCurvature):
        check_main_theorem(flat, "lagrangian")


def test_extremal_stats_torus_angle_reaches_minus_one(torus32_trace):
    thin = thin_trace(torus32_trace, 200)
    stats = extremal_stats(thin, "lagrangian")
    assert abs(stats["delta"] + 1.0) < 1e-6
    assert stats["h2"] > 0
    # The symplectic read-off sees the identically vanishing cosine.
    sympl = extremal_stats(thin, "symplectic")
    assert abs(sympl["delta"]) < 1e-10


def test_extremal_stats_rejects_non_lagrangian_traces(sympl32_mono):
    with pytest.raises(KindMismatch):
        extremal_stats(thin_trace(sympl32_mono, 40), "lagrangian")


def test_extremal_stats_on_lagrangian_graph(lagr32_mono):
    stats = extremal_stats(thin_trace(lagr32_mono, 20), "lagrangian")
    assert 0.9 < stats["delta"] <= 1.0 + 1e-12
    assert stats["h2"] > 0


def test_theorem_verdict_on_shrinking_torus(torus32_trace):
    rep = check_main_theorem(thin_trace(torus32_trace, 200), "lagrangian")
    assert abs(rep.delta + 1.0) < 1e-6
    assert rep.h2 == pytest.approx(1.0, abs=0.01)
    assert rep.lhs == pytest.approx(-np.exp(0.5), abs=0.02)
    assert rep.verdict == "satisfied"
    assert rep.hypotheses["ancient"] is False
    assert rep.hypotheses["complete"] is True
    assert not rep.claims_disproof()


def test_theorem_verdict_on_translating_ridge(grim257_trace):
    rep = check_main_theorem(grim257_trace, "lagrangian")
    expect = np.cos(1.4) * np.exp(0.5)
    assert rep.lhs == pytest.approx(expect, abs=1e-4)
    assert rep.scaleApplied == pytest.approx(1.0, abs=1e-3)
    assert rep.verdict == "satisfied"
    assert rep.hypotheses["ancient"] is False
    assert rep.hypotheses["complete"] is False    # one clamped axis
    assert not rep.claims_disproof()


def test_theorem_reads_the_source_trace_without_rescaling(
        monkeypatch, grim257_trace, torus32_trace):
    def never(*args, **kwargs):
        raise AssertionError("a rescaled trace was built")

    monkeypatch.setattr(theorem, "normalize_flow", never)
    monkeypatch.setattr(FlowTrace, "parabolic", never)
    ridge = check_main_theorem(grim257_trace, "lagrangian")
    assert ridge.lhs == pytest.approx(np.cos(1.4) * np.exp(0.5), abs=1e-4)
    thin = thin_trace(torus32_trace, 200)
    torus = check_main_theorem(thin, "lagrangian")
    assert torus.scaleApplied ** 2 == pytest.approx(_stored_sup(thin),
                                                    rel=1e-15)
    assert torus.lhs == pytest.approx(-np.exp(0.5), abs=0.02)


def test_theorem_h2_of_the_ridge_is_one_to_rounding(grim1025_trace):
    assert abs(check_main_theorem(grim1025_trace, "lagrangian").h2
               - 1.0) < 1e-13


def test_probe_trivial_on_static_flat_patch():
    trace = _static_trace(plane(32, 32, halfwidth=3.0), [0.0, 0.01, 0.02])
    res = gradient_estimate_probe(trace, 0.9, 1e3, "lagrangian")
    assert res["maxGF"] == pytest.approx(1.0, abs=1e-12)
    assert res["inequalityResidualMin"] == pytest.approx(0.0, abs=1e-10)


def test_probe_rejects_a_trace_without_an_interior_state():
    trace = _static_trace(plane(32, 32, halfwidth=3.0), [0.0, 0.01])
    with pytest.raises(ShortTrace, match="got 2"):
        gradient_estimate_probe(trace, 0.9, 1e3, "lagrangian")


def test_probe_rejects_a_non_lagrangian_trace_by_kind():
    # A graph over a complex line is symplectic (|cos alpha| = 1), and its
    # cos theta reaches -1.9e-15, below the probe's angle floor: the probe
    # must name the wrong kind, not the floor.
    trace = run_flow(symplectic_graph(16, 16),
                     RunControls(dt=1e-3, max_steps=4))
    with pytest.raises(KindMismatch, match="at stored state 0"):
        gradient_estimate_probe(normalize_flow(trace)["trace"], 0.5, 1e3,
                                "lagrangian")


def test_probe_residual_nonnegative_on_refined_window(refine_minis):
    mini = refine_minis[("lagr", 16)]
    norm = normalize_flow(mini)["trace"]
    res = gradient_estimate_probe(norm, 0.9, 1e3, "lagrangian")
    assert res["inequalityResidualMin"] >= -1e-12
    assert res["maxGF"] > 0
