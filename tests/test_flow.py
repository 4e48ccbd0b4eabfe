"""Time-integrator checks.

Oracle for the integrator order: on the product-of-circles surface the node
velocity is exactly radial with a grid-dependent coefficient, so the exact
solution of the resulting radius equation r' = -c / r is
r(t) = sqrt(r0^2 - 2 c t) with c measured directly from the velocity field.
Comparing stepped radii against that closed form isolates the pure time
error of the integrator: RK4 (fixed-dt runs) and the Runge-Kutta-Chebyshev
step (adaptive runs).

Oracle for the frame-free per-step diagnostics: the scalar row and the
velocity must agree with the bundle and with the frame oracle of
``test_geometry`` (Gram-Schmidt angles, normal-frame components of the
second fundamental form) on a torus and two graphs, also after a seeded
unitary motion.
"""

import time
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcf4d import flow, geometry
from mcf4d.errors import BadParameter, DegenerateMetric, InsufficientBlowup
from mcf4d.flow import (SCALAR_COLUMNS, FlowTrace, MappedStates, RunControls,
                        TraceScalars, cfl_dt, estimate_singular_time, rkc_dt,
                        rkc_stages, rkc_step, run_flow, scalar_row, step,
                        velocity)
from mcf4d.geometry import (SCALING_POWERS, GeometryBundle, ScaledBundle,
                            build_geometry)
from mcf4d.grid import ParamGrid, SurfaceState, component_major
from mcf4d.rescale import select_blowup_datum, validate_rescaled, with_rescaled
from mcf4d.scenarios import (clifford_torus, complex_line,
                             grim_reaper_product, lagrangian_graph, plane,
                             run_sphere_ode, sphere_patch, symplectic_graph,
                             translating_trace)
from mcf4d.theorem import gradient_estimate_probe, normalize_flow

from conftest import assert_bundle_matches, count_bundles, su2_real
from test_geometry import frame_oracle


def test_scalar_columns_contract():
    assert SCALAR_COLUMNS == ("step", "t", "area", "max_A2", "max_H2",
                              "min_cos_alpha", "min_cos_theta", "min_detg")


def test_cfl_dt_positive():
    assert cfl_dt(GeometryBundle(clifford_torus(16, 16))) > 0


@pytest.mark.parametrize("scale, spread, turned", [
    (1.0, 1e3, True), (1e-20, 1e3, True), (1e100, 1e-3, True),
    (1e100, 1e-14, True), (1.0, 1e150, False)],
    ids=["unit", "tiny", "huge", "huge_isotropic", "axis_ratio_1e150"])
def test_cfl_dt_takes_the_smaller_metric_eigenvalue(scale, spread, turned):
    # Seeded random metrics with eigenvalues lam and lam (1 + spread r),
    # turned by a random angle or left on the axes; the last case is the
    # metric of a steep graph, where half trace - radius cancels to 0.
    rng = np.random.default_rng(5)
    low = scale * rng.uniform(0.5, 2.0, (8, 8))
    high = low * (1.0 + spread * rng.uniform(0.0, 1.0, (8, 8)))
    turn = rng.uniform(0.0, np.pi, (8, 8)) if turned else np.zeros((8, 8))
    c, s = np.cos(turn), np.sin(turn)
    g11, g22 = c * c * low + s * s * high, s * s * low + c * c * high
    g12 = c * s * (high - low)
    geom = SimpleNamespace(g11=g11, g12=g12, g22=g22,
                           det_g=g11 * g22 - g12 * g12,
                           grid=ParamGrid(8, 8, 0.3, 0.2, True, True))
    metric = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    eig_min = np.linalg.eigvalsh(metric)[..., 0].min()
    expect = flow.CFL_SAFETY * eig_min * 0.2 ** 2 / flow.CFL_DENOMINATOR
    assert cfl_dt(geom) == pytest.approx(expect, rel=1e-12)


def _arrays(value):
    """The arrays in a bundle attribute, inside nested tuples too."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


def test_step_diagnostics_form_no_vector_fields(monkeypatch):
    # The scalar row comes from inner products: it forms no complex angle
    # unit, and a stage velocity reads H alone.  The bundle keeps no stack
    # of normal parts of the Hessian, and no field of any reader is one.
    lazy = {name for name, attr in vars(GeometryBundle).items()
            if isinstance(attr, cached_property)}
    assert {"lag_angle_unit", "norm_A2"} <= lazy
    assert not hasattr(GeometryBundle, "normal_hessian")
    state = clifford_torus(16, 16)
    geom = GeometryBundle(state)
    scalar_row(0, geom)
    assert "lag_angle_unit" not in vars(geom)
    for name in lazy:
        getattr(geom, name)
    assert lazy <= set(vars(geom))
    assert all(a.ndim < 4 for v in vars(geom).values() for a in _arrays(v))
    stages = []

    class Recorded(GeometryBundle):
        def __init__(self, s):
            super().__init__(s)
            stages.append(self)

    monkeypatch.setattr(flow, "GeometryBundle", Recorded)
    velocity(state)
    assert len(stages) == 1
    assert not lazy & set(vars(stages[0]))


def test_velocity_vanishes_on_flat_patch():
    assert np.abs(velocity(plane(16, 16))).max() < 1e-10


def test_velocity_is_inward_radial_on_sphere():
    r = 1.0
    st = sphere_patch(24, 32, radius=r)
    vel = velocity(st)
    expect = -2.0 / r ** 2 * st.positions
    assert np.abs(vel - expect).max() < 5e-3


def test_rk4_fourth_order_against_discrete_radius_ode():
    # RK4's error falls 16x per dt halving; the second-order RKC step's 4x,
    # at 2 and at 5 stages (measured: 15.8-15.9 and 3.96-3.98).
    st = clifford_torus(16, 16, radius=0.5)
    vel = velocity(st)
    f = st.positions
    r2 = np.sum(f * f, axis=-1)
    gamma = -np.sum(vel * f, axis=-1) / r2
    # Velocity must be exactly radial and the coefficient node-independent.
    colinear = vel + gamma[..., None] * f
    assert np.abs(colinear).max() < 1e-12
    c_field = gamma * 0.25  # gamma * r0^2 with r0 = 0.5
    assert c_field.max() - c_field.min() < 1e-12
    c = float(c_field.mean())

    def radius_error(advance, dt, k):
        s = st.copy()
        for _ in range(k):
            s = advance(s, dt, GeometryBundle(s))
        exact = np.sqrt(0.25 - 2.0 * c * dt * k)
        got = np.sqrt(np.sum(s.positions ** 2, axis=-1) / 2.0)
        return np.abs(got - exact).max()

    integrators = {
        "rk4": (step, 13.0, 19.0),
        "rkc2": (lambda s, dt, g: rkc_step(s, dt, g, 2), 3.5, 4.5),
        "rkc5": (lambda s, dt, g: rkc_step(s, dt, g, 5), 3.5, 4.5),
    }
    for name, (advance, low, high) in integrators.items():
        e1 = radius_error(advance, 2e-3, 40)
        e2 = radius_error(advance, 1e-3, 80)
        e3 = radius_error(advance, 5e-4, 160)
        assert low < e1 / e2 < high, (name, e1 / e2)
        assert low < e2 / e3 < high, (name, e2 / e3)


def test_adaptive_run_on_a_nearly_flat_plane_caps_its_stages():
    # On the flat plane and the complex line max|A|^2 is rounding (about
    # 1e-43), which asks for dt ~ 1e41; the stage cap clamps it.
    for state in (plane(16, 16), complex_line(16, 16)):
        geom = GeometryBundle(state)
        max_a2, cfl = scalar_row(0, geom)[3], cfl_dt(geom)
        assert abs(max_a2) < 1e-30
        limit = flow.RKC_STABILITY * cfl * (flow.RKC_MAX_STAGES ** 2 - 1)
        assert rkc_dt(max_a2, cfl) == limit
        start = time.perf_counter()
        tr = run_flow(state, RunControls(max_steps=3))
        assert time.perf_counter() - start < 1.0
        assert tr.termination_reason == "step_limit"
        assert np.isfinite(tr.states[-1].positions).all()
        assert tr.meta["run_stats"]["max_stages"] == flow.RKC_MAX_STAGES


def _exactly_flat(n=16):
    """Periodic ramp (u, v, 0, 0) whose seam-stripped part is exactly zero,
    so every second derivative and |A|^2 vanish without rounding."""
    g = ParamGrid(n, n, 0.25, 0.25, True, True)
    pos = np.zeros((n, n, 4))
    pos[..., 0] = (g.axis_coords(0) / (n * 0.25))[:, None] * (n * 0.25)
    pos[..., 1] = (g.axis_coords(1) / (n * 0.25))[None, :] * (n * 0.25)
    return SurfaceState(g, pos, shift1=[n * 0.25, 0, 0, 0],
                        shift2=[0, n * 0.25, 0, 0])


def test_adaptive_step_of_an_exactly_flat_state_is_finite():
    state = _exactly_flat()
    geom = GeometryBundle(state)
    assert scalar_row(0, geom)[3] == 0.0
    cfl = cfl_dt(geom)
    dt = rkc_dt(0.0, cfl)
    assert np.isfinite(dt) and dt > 0
    assert rkc_stages(dt, cfl) == flow.RKC_MAX_STAGES
    tr = run_flow(state, RunControls(max_steps=2))
    assert tr.termination_reason == "step_limit"
    # H = 0, so the stages only recombine the positions, up to rounding.
    np.testing.assert_allclose(tr.states[-1].positions, state.positions,
                               rtol=0.0, atol=1e-12)


def test_run_stats_count_steps_evaluations_and_dt(monkeypatch):
    calls = []

    def counted(state, geom=None):
        calls.append(1)
        return velocity(state, geom)

    monkeypatch.setattr(flow, "velocity", counted)
    fixed = run_flow(clifford_torus(16, 16),
                     RunControls(dt=1e-3, max_steps=5))
    assert fixed.meta["run_stats"] == {
        "steps": 5, "velocity_evaluations": 20, "max_stages": 4,
        "dt_min": 1e-3, "dt_max": 1e-3}
    assert len(calls) == 20

    calls.clear()
    adaptive = run_flow(clifford_torus(16, 16, radius=0.5),
                        RunControls(stride=1, blowup_threshold=100.0))
    stats = adaptive.meta["run_stats"]
    plans = []
    for state in adaptive.states[:-1]:
        geom = GeometryBundle(state)
        cfl = cfl_dt(geom)
        dt = rkc_dt(float(geom.norm_A2.max()), cfl)
        plans.append((dt, rkc_stages(dt, cfl)))
    assert stats["steps"] == len(plans) == len(adaptive.scalars) - 1
    assert stats["velocity_evaluations"] == sum(s for _, s in plans)
    assert stats["velocity_evaluations"] == len(calls)
    assert stats["max_stages"] == max(s for _, s in plans) >= 2
    assert stats["dt_min"] == min(dt for dt, _ in plans)
    assert stats["dt_max"] == max(dt for dt, _ in plans)


def test_run_flow_storage_and_step_limit():
    tr = run_flow(clifford_torus(16, 16),
                  RunControls(dt=1e-3, max_steps=10, stride=4))
    assert tr.termination_reason == "step_limit"
    assert len(tr.scalars) == 11            # scalars at steps 0..10
    assert tr.state_steps == [0, 4, 8, 10]  # stride plus forced final state
    assert tr.states[0].time == 0.0
    assert np.all(np.diff(tr.scalars.t) > 0)


def test_run_flow_reaches_t_end_exactly():
    tr = run_flow(clifford_torus(16, 16),
                  RunControls(dt=1e-3, t_end=0.0035, stride=1))
    assert tr.termination_reason == "reached_t_end"
    assert abs(tr.states[-1].time - 0.0035) < 1e-14


def test_run_flow_detects_blowup():
    tr = run_flow(clifford_torus(16, 16, radius=0.3),
                  RunControls(blowup_threshold=100.0))
    assert tr.termination_reason == "blowup_detected"
    assert tr.scalars.max_A2[-1] > 100.0


def test_run_flow_raises_on_broken_initial_state():
    g = ParamGrid(8, 8, 0.1, 0.1, True, True)
    with pytest.raises(DegenerateMetric):
        run_flow(SurfaceState(g, np.zeros((8, 8, 4))), RunControls(max_steps=2))


def test_trace_memoizes_bundles_and_curvature(monkeypatch):
    tr = run_flow(clifford_torus(16, 16),
                  RunControls(dt=1e-3, max_steps=4, stride=2))
    assert tr.bundle(0) is tr.bundle(0)
    assert tr.curvature_a2(1) is tr.curvature_a2(1)
    # One cache key per stored state: index -1 is index n - 1, and the
    # |A|^2 field run_flow stored for it is read without a build.
    n = len(tr.states)
    assert tr.bundle(-1) is tr.bundle(n - 1)
    assert sorted(tr._bundles) == [0, n - 1]
    monkeypatch.setattr(flow, "build_geometry", None)
    assert tr.curvature_a2(-n) is tr.curvature_a2(0) is tr._a2_fields[0]
    for index in (n, -n - 1):
        for read in (tr.bundle, tr.curvature_a2):
            with pytest.raises(BadParameter, match=f"outside range\\({n}\\)"):
                read(index)


def _window_sweep(n):
    """Requests (i - 1, i, i + 1) for i = 1 .. n - 2, as
    ``evolution_residual`` makes them."""
    return [j for i in range(1, n - 1) for j in (i - 1, i, i + 1)]


@pytest.mark.parametrize("n, requests, builds", [
    (16, [*range(16), *range(16), *_window_sweep(16)], 24),   # FIFO: 48
    (16, 5 * list(range(16)), 32),                             # FIFO: 80
    (41, _window_sweep(41), 41),                               # MRU: 97
], ids=["two_sweeps_then_windows", "five_sweeps", "windows_only"])
def test_bundle_cache_builds_ascending_sweeps_optimally(monkeypatch, n,
                                                        requests, builds):
    # Each count is the fewest builds any 12-bundle cache needs for the
    # requests (Belady's optimum).
    built = []
    monkeypatch.setattr(flow, "build_geometry",
                        lambda state: built.append(state) or object())
    tr = FlowTrace(states=[clifford_torus(8, 8)] * n,
                   state_steps=list(range(n)),
                   scalars=TraceScalars.from_rows([]),
                   termination_reason="step_limit")
    for index in requests:
        tr.bundle(index)
        assert len(tr._bundles) <= 12
    assert len(built) == builds


def test_estimate_singular_time_on_shrinking_torus(torus32_trace):
    v = estimate_singular_time(torus32_trace)
    assert abs(v.singular_time - 0.5) < 5e-4
    assert v.classification == "TypeI"
    assert abs(v.type_i_sup - 1.0) < 0.05
    assert v.oscillation < 0.2


def _synthetic_blowup(max_a2):
    """Scalars-only blow-up trace: 400 uniform samples of max|A|^2 = max_a2(t)
    for t up to 0.999."""
    t = np.linspace(0.0, 0.999, 400)
    a2 = max_a2(t)
    rows = [(k, t[k], 1.0, a2[k], a2[k], 0.0, 0.0, 1.0)
            for k in range(t.size)]
    return FlowTrace(states=[], state_steps=[],
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason="blowup_detected")


def test_estimate_singular_time_on_synthetic_rates():
    v = estimate_singular_time(_synthetic_blowup(lambda t: 0.5 / (1.0 - t)))
    assert v.classification == "TypeI"
    assert abs(v.singular_time - 1.0) < 1e-9
    # A Type II rate: the affine fit puts T before the last sample, so
    # (T - t) max|A|^2 changes sign and must not read as bounded.
    v = estimate_singular_time(_synthetic_blowup(lambda t: (1.0 - t) ** -1.5))
    assert v.singular_time < 0.999
    assert v.classification != "TypeI"


def test_estimate_singular_time_needs_a_blowup_trace():
    tr = run_flow(clifford_torus(16, 16), RunControls(dt=1e-3, t_end=0.01))
    with pytest.raises(InsufficientBlowup):
        estimate_singular_time(tr)


EQUIVALENCE_SURFACES = {
    "clifford_torus": lambda: clifford_torus(32, 32),
    "lagrangian_graph": lambda: lagrangian_graph(32, 32, 0.1),
    "symplectic_graph": lambda: symplectic_graph(32, 32, 0.1),
}


def _equivalence_state(name, moved):
    st = EQUIVALENCE_SURFACES[name]()
    if moved:
        rng = np.random.default_rng(2007)
        st = st.transformed(offset=rng.uniform(-1.0, 1.0, 4),
                            rotation=su2_real(rng))
    return st


@pytest.mark.parametrize("moved", [False, True], ids=["fixed", "moved"])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SURFACES))
def test_frame_free_row_matches_bundle(name, moved):
    st = _equivalence_state(name, moved)
    b, o = build_geometry(st), frame_oracle(st)
    row = scalar_row(5, b)
    assert row[:2] == (5, st.time)
    # Frame route to |A|^2 and H: normal-frame components of A_ij.
    a2_frame = np.einsum('...ik,...jl,...nij,...nkl->...', o.inverse,
                         o.inverse, o.second_ff, o.second_ff)
    h_normal = np.einsum('...ij,...nij->...n', o.inverse, o.second_ff)
    expect = {
        "area": float(np.sum(b.quadrature_weights())),
        "max_A2": float(b.norm_A2.max()),
        "max_H2": float(b.norm_H2.max()),
        "min_detg": float(b.det_g.min()),
    }
    got = dict(zip(SCALAR_COLUMNS, row))
    for col, value in expect.items():
        assert abs(got[col] - value) <= 1e-12 * abs(value), col
    assert abs(got["max_A2"] - a2_frame.max()) <= 1e-12 * a2_frame.max()
    h2_frame = np.sum(h_normal ** 2, axis=-1)
    assert abs(got["max_H2"] - h2_frame.max()) <= 1e-12 * h2_frame.max()
    # Node by node too: the maxima may sit where g_12 and its terms vanish.
    assert np.abs(b.norm_A2 - a2_frame).max() <= 1e-12 * a2_frame.max()
    assert np.abs(b.norm_H2 - h2_frame).max() <= 1e-12 * h2_frame.max()
    assert abs(got["min_cos_alpha"] - o.cos_alpha.min()) <= 1e-13
    assert abs(got["min_cos_theta"] - o.lag_angle_unit.real.min()) <= 1e-13


@pytest.mark.parametrize("moved", [False, True], ids=["fixed", "moved"])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SURFACES))
def test_velocity_matches_bundle_mean_curvature(name, moved):
    st = _equivalence_state(name, moved)
    b, o = build_geometry(st), frame_oracle(st)
    vel = velocity(st)
    h_normal = np.einsum('...ij,...nij->...n', o.inverse, o.second_ff)
    h_frame = np.einsum('...n,...nc->...c', h_normal, o.normal_frame)
    scale = max(1.0, np.abs(h_frame).max())
    assert np.abs(vel - b.mean_curvature.transpose(1, 2, 0)).max() \
        <= 1e-12 * scale
    assert np.abs(vel - h_frame).max() <= 1e-12 * scale


def test_run_flow_seeds_stored_curvature_without_bundles(monkeypatch):
    def no_bundle(*args, **kwargs):
        raise AssertionError("build_geometry called")

    monkeypatch.setattr(flow, "build_geometry", no_bundle)
    monkeypatch.setattr(geometry, "build_geometry", no_bundle)
    tr = run_flow(clifford_torus(16, 16),
                  RunControls(dt=1e-3, max_steps=10, stride=4))
    assert tr.state_steps == [0, 4, 8, 10]
    assert sorted(tr._a2_fields) == [0, 1, 2, 3]
    fields = [tr.curvature_a2(i) for i in range(len(tr.states))]
    monkeypatch.undo()
    for st, a2 in zip(tr.states, fields):
        assert np.array_equal(a2, build_geometry(st).norm_A2)


def test_degenerate_metric_mid_run_ends_with_degenerate_mesh(monkeypatch):
    dt = 1e-3

    def geometry_of(state):
        if state.time > 2.5 * dt:
            raise DegenerateMetric(0, "injected at step 3")
        return GeometryBundle(state)

    monkeypatch.setattr(flow, "GeometryBundle", geometry_of)
    tr = run_flow(clifford_torus(16, 16),
                  RunControls(dt=dt, max_steps=10, stride=1))
    assert tr.termination_reason == "degenerate_mesh"
    assert tr.state_steps == [0, 1, 2]
    assert list(tr.scalars.step) == [0, 1, 2]
    assert abs(tr.scalars.t[-1] - 2 * dt) < 1e-15
    assert sorted(tr._a2_fields) == [0, 1, 2]


@pytest.mark.parametrize("dt, steps", [(3.0, 26), (0.5, 80)],
                         ids=["state_degenerates", "step_fails"])
def test_failed_step_ends_on_the_last_good_state(dt, steps):
    # At dt = 3 the step from state 26 is taken but its state has a
    # degenerate metric; at dt = 0.5 a stage fails inside the step from
    # state 80.  Either way state `steps` is the last, with its row, and the
    # failed step is not counted.
    tr = run_flow(clifford_torus(8, 8),
                  RunControls(dt=dt, max_steps=400, stride=4,
                              blowup_threshold=1e300))
    assert tr.termination_reason == "degenerate_mesh"
    assert tr.meta["run_stats"]["steps"] == steps
    assert tr.scalars.step[-1] == steps and tr.state_steps[-1] == steps
    assert tr.states[-1].time == tr.scalars.t[-1]


@pytest.mark.parametrize("dt, steps", [(3.0, 26), (0.5, 80)],
                         ids=["state_degenerates", "step_fails"])
def test_failed_run_keeps_its_termination_record(dt, steps):
    # The error that ends a run with degenerate_mesh is kept: its class, the
    # failed step (one past the last counted), the time it set out from, the
    # node and the message that names it.
    tr = run_flow(clifford_torus(8, 8),
                  RunControls(dt=dt, max_steps=400, stride=4,
                              blowup_threshold=1e300))
    failure = tr.meta["run_stats"]["failure"]
    assert set(failure) == {"error", "step", "time", "node", "message"}
    assert failure["error"] == "DegenerateMetric"
    assert failure["step"] == steps + 1
    assert failure["time"] == tr.states[-1].time == tr.scalars.t[-1]
    row, col = failure["node"]
    assert isinstance(row, int) and isinstance(col, int)
    assert 0 <= row < 8 and 0 <= col < 8
    assert failure["message"].endswith(f" at node {failure['node']}")
    # A run that ends any other way keeps no failure record.
    ok = run_flow(clifford_torus(8, 8), RunControls(dt=dt, max_steps=3))
    assert ok.termination_reason == "step_limit"
    assert "failure" not in ok.meta["run_stats"]


@pytest.fixture(scope="module")
def graph_flow():
    """Three stored states of a non-flat Lagrangian graph flow."""
    return run_flow(lagrangian_graph(32, 32, 0.3),
                    RunControls(dt=1e-3, max_steps=4, stride=2))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(lam=st.floats(0.25, 4.0), lam2=st.floats(0.25, 4.0),
       t0=st.floats(-1.0, 1.0),
       offset=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_parabolic_scaling_matches_recomputed_rows(graph_flow, lam, lam2, t0,
                                                   offset):
    mapped = graph_flow.parabolic(lam, t0, np.array(offset))
    assert mapped.state_steps == graph_flow.state_steps
    sc = mapped.scalars
    for k, state in zip(mapped.state_steps, mapped.states):
        row = scalar_row(k, GeometryBundle(state))
        stored = [getattr(sc, c)[k] for c in SCALAR_COLUMNS]
        # atol covers min_cos_alpha, which is zero to rounding on this flow.
        np.testing.assert_allclose(stored, row, rtol=1e-9, atol=1e-12)

    twice = mapped.parabolic(lam2)
    once = graph_flow.parabolic(lam * lam2, t0, np.array(offset))
    for a, b in zip(twice.states, once.states):
        np.testing.assert_allclose(a.positions, b.positions, rtol=1e-12,
                                   atol=1e-12)
        assert a.time == pytest.approx(b.time, rel=1e-12, abs=1e-12)
    for c in SCALAR_COLUMNS:
        np.testing.assert_allclose(getattr(twice.scalars, c),
                                   getattr(once.scalars, c), rtol=1e-12,
                                   atol=1e-12)


def _assert_mapped_exactly(mapped, source, lam, offset, times):
    """Every state of ``mapped`` is bitwise ``source``'s state moved by
    ``transformed`` with scale ``lam`` and ``offset`` to its entry of
    ``times``, read by positive and negative index, slice and iteration,
    and ``mapped.times`` are those times."""
    expected = [s.transformed(scale=lam, offset=offset, time=t)
                for s, t in zip(source.states, times)]
    n = len(expected)
    assert len(mapped.states) == n
    reads = ([(mapped.states[i], expected[i]) for i in range(n)]
             + [(mapped.states[i - n], expected[i]) for i in range(n)]
             + list(zip(mapped.states[1:], expected[1:]))
             + list(zip(mapped.states[::-2], expected[::-2]))
             + list(zip(mapped.states, expected)))
    for got, want in reads:
        for attr in ("positions", "shift1", "shift2"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.time == want.time
    assert np.array_equal(mapped.times, [s.time for s in expected])


def test_parabolic_maps_every_read_exactly(graph_flow):
    lam, t0, offset = 1.7, 0.3, np.array([0.1, -0.2, 0.3, -0.4])
    once = graph_flow.parabolic(lam, t0, offset)
    _assert_mapped_exactly(once, graph_flow, lam, offset,
                           lam * lam * (graph_flow.times - t0))
    # Mapped twice: each read maps the run's state once, by the composed
    # map lam2 (lam (F - X) - X2) = lam lam2 (F - (X + X2 / lam)).
    lam2, t02, offset2 = 0.6, -0.05, np.array([0.0, 0.5, 0.0, -0.5])
    twice = once.parabolic(lam2, t02, offset2)
    _assert_mapped_exactly(twice, graph_flow, lam * lam2,
                           offset + offset2 / lam,
                           lam2 * lam2 * (once.times - t02))


def test_mapped_times_map_no_state(graph_flow, monkeypatch):
    twice = graph_flow.parabolic(2.0, 0.1, np.ones(4)).parabolic(0.5, 0.2)
    calls = []
    original = SurfaceState.transformed

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceState, "transformed", counted)
    times = twice.times
    assert calls == []
    assert times.shape == (len(graph_flow.states),)
    twice.states[-1]
    assert len(calls) == 1


@pytest.fixture(scope="module")
def torus_flow():
    """Three stored states of a shrinking Clifford torus."""
    return run_flow(clifford_torus(16, 16),
                    RunControls(dt=1e-3, max_steps=4, stride=2))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(lam=st.floats(0.25, 4.0), t0=st.floats(-1.0, 1.0),
       offset=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_mapped_bundle_matches_geometry_rebuilt_on_the_mapped_state(
        graph_flow, torus_flow, lam, t0, offset):
    for source in (graph_flow, torus_flow):
        mapped = source.parabolic(lam, t0, np.array(offset))
        for i in range(len(mapped.states)):
            view = mapped.bundle(i)
            assert isinstance(view, ScaledBundle)
            assert_bundle_matches(view, mapped.states[i])


@pytest.fixture(scope="module")
def exact_traces():
    """The radius-ODE sphere and a translating ridge, each one base state."""
    return (run_sphere_ode(1.0, RunControls(stride=256)),
            translating_trace(lambda t: grim_reaper_product(65, 16, time=t),
                              np.linspace(0.0, 0.1, 3)))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(lam=st.floats(0.25, 8.0), t0=st.floats(-1.0, 1.0),
       offset=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_mapped_curvature_is_bitwise_the_mapped_bundle_field(
        graph_flow, exact_traces, lam, t0, offset):
    # One formula scales |A|^2, whether read alone or off the geometry view.
    for source in (graph_flow, *exact_traces):
        mapped = source.parabolic(lam, t0, np.array(offset))
        for i in range(len(mapped.states)):
            assert (mapped.curvature_a2(i).tobytes()
                    == mapped.bundle(i).norm_A2.tobytes())


def test_built_bundles_are_seeded_with_the_stored_a2(graph_flow):
    # The stored |A|^2 field is the one the run read off the same state's
    # geometry, so a bundle built later takes it as is.
    for i in (0, len(graph_flow.states) // 2, -1):
        stored = graph_flow._a2_fields[graph_flow._stored(i)]
        bundle = graph_flow.bundle(i)
        assert bundle.norm_A2 is stored
        assert np.array_equal(GeometryBundle(graph_flow.states[i]).norm_A2,
                              stored)


def test_unit_scale_view_shares_the_source_arrays(graph_flow):
    state = graph_flow.states[-1]
    bundle = GeometryBundle(state)
    moved = state.transformed(offset=np.ones(4))
    view = ScaledBundle(bundle, MappedStates([state], [0], np.ones(1),
                                             np.ones((1, 4)), [state.time]), 0)
    for name in SCALING_POWERS:
        assert getattr(view, name) is getattr(bundle, name), name
    assert np.array_equal(view.positions, moved.positions)
    assert view.positions is view.positions


def test_every_bundle_field_has_a_scaling_rule(graph_flow):
    bundle = GeometryBundle(graph_flow.states[-1])
    for name, attr in vars(GeometryBundle).items():
        if isinstance(attr, (cached_property, property)):
            getattr(bundle, name)
    fields = set(vars(bundle)) - {"grid", "positions", "time"}
    assert fields == set(SCALING_POWERS)
    view = graph_flow.parabolic(2.0).bundle(0)
    with pytest.raises(AttributeError, match="no scaling rule for 'grid_x'"):
        view.grid_x


def test_mapped_traces_build_no_geometry(torus32_trace, monkeypatch):
    source = run_flow(lagrangian_graph(16, 16, 0.2),
                      RunControls(dt=1e-3, max_steps=4, stride=2))
    built = count_bundles(monkeypatch)
    once = normalize_flow(source)["trace"]
    twice = normalize_flow(once)["trace"]
    for trace in (once, twice):
        gradient_estimate_probe(trace, 0.9, 1e3, "lagrangian")
    # The mapped traces share the source's cache, and only the source's own
    # states were built, each once.
    assert once._bundles is twice._bundles is source._bundles
    assert len(built) == len(source.states)
    assert all(any(b is s for s in source.states) for b in built)

    built.clear()
    rec = with_rescaled(torus32_trace, select_blowup_datum(
        torus32_trace, estimate_singular_time(torus32_trace).singular_time,
        np.zeros(4), 0.25))
    validate_rescaled(rec)
    assert built == []


def _node_major_step(state, dt, geom, stages=None):
    """Positions after one RK4 step (``stages`` None) or RKC step of
    ``state``, every stage formed node-major from ``velocity``."""

    def moved(pos):
        return SurfaceState(state.grid, pos, state.time, state.shift1,
                            state.shift2)

    y0 = state.positions
    if stages is None:
        k1 = velocity(state, geom)
        k2 = velocity(moved(y0 + (0.5 * dt) * k1))
        k3 = velocity(moved(y0 + (0.5 * dt) * k2))
        k4 = velocity(moved(y0 + dt * k3))
        return y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    mu1, rows = flow._rkc_coefficients(stages)
    f0 = velocity(state, geom)
    prev, cur = y0, y0 + (mu1 * dt) * f0
    for mu, nu, mu_t, gamma_t in rows:
        f = velocity(moved(cur))
        prev, cur = cur, ((1.0 - mu - nu) * y0 + mu * cur + nu * prev
                          + (mu_t * dt) * f + (gamma_t * dt) * f0)
    return cur


@pytest.mark.parametrize("name", ["seam_shifted_graph", "torus"])
@pytest.mark.parametrize("stages", [None, 2, 5], ids=["rk4", "rkc2", "rkc5"])
def test_component_major_steps_equal_a_node_major_reference(name, stages):
    rng = np.random.default_rng(5)
    state = (lagrangian_graph(24, 24, 0.2).transformed(rotation=su2_real(rng))
             if name == "seam_shifted_graph" else clifford_torus(24, 24))
    geom = GeometryBundle(state)
    dt = 0.5 * cfl_dt(geom)
    out = (step(state, dt, geom) if stages is None
           else rkc_step(state, dt, geom, stages))
    assert np.array_equal(out.positions,
                          _node_major_step(state, dt, geom, stages))
    assert out.positions.flags.c_contiguous
    assert out.positions.shape == state.positions.shape
    assert out.time == state.time + dt
    assert np.array_equal(out.shift1, state.shift1)
    assert np.array_equal(out.shift2, state.shift2)


@pytest.mark.parametrize("make", [lambda: clifford_torus(24, 24),
                                  lambda: symplectic_graph(24, 32, 0.3)])
def test_in_place_cfl_bound_is_bitwise_the_out_of_place_formula(make):
    geom = GeometryBundle(make())
    half_tr = 0.5 * (geom.g11 + geom.g22)
    radius = np.sqrt(0.25 * (geom.g11 - geom.g22) ** 2 + geom.g12 ** 2)
    eig_min = float(np.min(geom.det_g / (half_tr + radius)))
    h_min = min(geom.grid.spacing1, geom.grid.spacing2)
    assert cfl_dt(geom) == (flow.CFL_SAFETY * eig_min * h_min * h_min
                            / flow.CFL_DENOMINATOR)


@pytest.mark.parametrize("stages", [2, 3, 10])
def test_in_place_rkc_stage_sums_equal_the_out_of_place_combination(stages):
    # Each stage sum accumulates in place, left to right: bitwise the
    # out-of-place combination of the reference, at the largest step the
    # stage count keeps stable.
    rng = np.random.default_rng(stages)
    state = symplectic_graph(24, 24, 0.2).transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    geom = GeometryBundle(state)
    dt = flow.RKC_STABILITY * cfl_dt(geom) * (stages ** 2 - 1)
    assert rkc_stages(dt, cfl_dt(geom)) == stages
    out = rkc_step(state, dt, geom, stages)
    expect = _node_major_step(state, dt, geom, stages)
    assert out.positions.tobytes() == expect.tobytes()


def _out_of_place_rk4(state, dt, geom):
    """RK4 step positions, component-major, each stage array and the final
    y0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) formed out of place, on stage
    states made and checked by SurfaceState."""

    def k(y):
        return velocity(SurfaceState(state.grid, y.transpose(1, 2, 0),
                                     state.time, state.shift1,
                                     state.shift2)).transpose(2, 0, 1)

    y0 = component_major(state.positions)
    k1 = velocity(state, geom).transpose(2, 0, 1)
    k2 = k(y0 + (0.5 * dt) * k1)
    k3 = k(y0 + (0.5 * dt) * k2)
    k4 = k(y0 + dt * k3)
    return y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["lagrangian_graph", "symplectic_graph",
                             "clifford_torus"]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.5, 2.0),
       fraction=st.floats(0.1, 1.0))
def test_in_place_rk4_step_is_bitwise_the_out_of_place_formula(
        name, seed, scale, fraction):
    rng = np.random.default_rng(seed)
    build = {"lagrangian_graph": lambda: lagrangian_graph(16, 20, 0.2),
             "symplectic_graph": lambda: symplectic_graph(20, 16, 0.2),
             "clifford_torus": lambda: clifford_torus(16, 16)}[name]
    state = build().transformed(scale=scale, offset=rng.uniform(-1, 1, 4),
                                rotation=su2_real(rng))
    geom = GeometryBundle(state)
    k1 = geom.mean_curvature.tobytes()
    dt = fraction * cfl_dt(geom)
    out = step(state, dt, geom)
    want = _out_of_place_rk4(state, dt, geom).transpose(1, 2, 0)
    assert out.positions.tobytes() == want.tobytes()
    assert out.positions.flags.c_contiguous
    # The in-place sums leave the state's own geometry untouched.
    assert geom.mean_curvature.tobytes() == k1
    assert out.time == state.time + dt


@pytest.mark.parametrize("dt", [1e-3, None], ids=["rk4", "rkc"])
def test_every_stored_state_is_node_major_and_contiguous(dt):
    trace = run_flow(symplectic_graph(16, 24, 0.1),
                     RunControls(dt=dt, max_steps=5, stride=2))
    assert trace.state_steps == [0, 2, 4, 5]
    for state in trace.states:
        assert state.positions.shape == (16, 24, 4)
        assert state.positions.flags.c_contiguous


@pytest.mark.parametrize("name, value", [
    ("max_steps", float("nan")), ("max_steps", 2.5), ("max_steps", 3.0),
    ("max_steps", True), ("stride", 1.5), ("stride", np.float64(2.0)),
    ("stride", False)],
    ids=["max_steps_nan", "max_steps_2.5", "max_steps_3.0", "max_steps_bool",
         "stride_1.5", "stride_float64", "stride_bool"])
def test_run_controls_take_whole_step_counts_only(name, value):
    with pytest.raises(BadParameter, match=f"{name} must be an integer"):
        RunControls(**{name: value})


def test_run_controls_take_numpy_integers():
    controls = RunControls(max_steps=np.int64(3), stride=np.int32(2))
    assert (controls.max_steps, controls.stride) == (3, 2)


@pytest.mark.parametrize("lam, t0, offset", [
    (0.0, 0.0, None), (-1.0, 0.0, None), (float("nan"), 0.0, None),
    (float("inf"), 0.0, None), (2.0, float("nan"), None),
    (2.0, float("-inf"), None), (2.0, 0.0, np.array([0.0, np.nan, 0.0, 0.0])),
    (2.0, 0.0, np.array([np.inf, 0.0, 0.0, 0.0]))],
    ids=["lam_zero", "lam_negative", "lam_nan", "lam_inf", "t0_nan",
         "t0_inf", "offset_nan", "offset_inf"])
def test_parabolic_rejects_a_scale_that_is_not_finite_and_positive(
        graph_flow, lam, t0, offset):
    with pytest.raises(BadParameter, match="rescaling"):
        graph_flow.parabolic(lam, t0, offset)
