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
from mcf4d.flow import (SCALAR_COLUMNS, FlowTrace, RunControls, TraceScalars,
                        cfl_dt, estimate_singular_time, rkc_dt, rkc_stages,
                        rkc_step, run_flow, scalar_row, step, velocity)
from mcf4d.geometry import GeometryBundle, build_geometry
from mcf4d.grid import ParamGrid, SurfaceState
from mcf4d.scenarios import (clifford_torus, complex_line, lagrangian_graph,
                             plane, sphere_patch, symplectic_graph)

from conftest import su2_real
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
