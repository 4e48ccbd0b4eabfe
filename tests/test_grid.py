"""Grid, surface-state, and seam-handling checks.

Oracle for the seam logic: a graph whose first coordinate equals the
parameter u carries a (2 pi, 0, 0, 0) seam shift, so its periodic part must
have that coordinate identically zero and its u-derivative must be exactly
one after the ramp is restored.  The kept seam ramps and slopes are checked
bitwise against their per-call formula (``_ramp_periodic_components``,
``_ramp_position_derivatives``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d import geometry
from mcf4d.errors import BadParameter, NonFinite
from mcf4d.flow import RunControls, run_flow
from mcf4d.geometry import GeometryBundle
from mcf4d.grid import (MAX_AXIS_NODES, ParamGrid, SurfaceState,
                        component_major, position_derivatives,
                        scalar_derivative)
from mcf4d.scenarios import clifford_torus, lagrangian_graph, symplectic_graph

from conftest import _fields, count_bundles, su2_real


def test_axis_coords_start_at_zero_with_given_spacing():
    g = ParamGrid(8, 12, 0.5, 0.25, True, False)
    np.testing.assert_allclose(g.axis_coords(0), 0.5 * np.arange(8))
    np.testing.assert_allclose(g.axis_coords(1), 0.25 * np.arange(12))
    assert g.shape == (8, 12)
    assert g.n1 * g.n2 == 96
    assert g.node_weight() == 0.125


def test_grid_rejects_tiny_axes_and_bad_spacing():
    with pytest.raises(BadParameter):
        ParamGrid(4, 12, 0.5, 0.25, True, True)
    with pytest.raises(BadParameter):
        ParamGrid(8, 12, -0.5, 0.25, True, True)
    # Outside SPACING_RANGE the stencil weights would overflow.
    for spacing in (0.0, np.nan, 2e50, 5e-51):
        with pytest.raises(BadParameter, match="spacings must lie in"):
            ParamGrid(8, 12, 0.5, spacing, True, True)


def test_grid_caps_nodes_per_axis():
    ParamGrid(MAX_AXIS_NODES, 8, 0.5, 0.25, False, True)
    for n1, n2 in ((MAX_AXIS_NODES + 1, 8), (8, MAX_AXIS_NODES + 1),
                   (10 ** 300, 8)):
        with pytest.raises(BadParameter):
            ParamGrid(n1, n2, 0.5, 0.25, True, True)


def test_state_shape_validation():
    g = ParamGrid(8, 8, 0.1, 0.1, True, True)
    with pytest.raises(BadParameter):
        SurfaceState(g, np.zeros((8, 9, 4)))
    with pytest.raises(BadParameter):
        SurfaceState(g, np.zeros((8, 8, 4)), shift1=np.zeros(3))


def test_shift_on_clamped_axis_rejected():
    g = ParamGrid(8, 8, 0.1, 0.1, False, True)
    with pytest.raises(BadParameter, match="seam shift on a clamped axis"):
        SurfaceState(g, np.zeros((8, 8, 4)), shift1=np.array([1.0, 0, 0, 0]))
    g = ParamGrid(8, 8, 0.1, 0.1, True, False)
    with pytest.raises(BadParameter, match="seam shift on a clamped axis"):
        SurfaceState(g, np.zeros((8, 8, 4)), shift2=np.array([0, 1.0, 0, 0]))


def test_require_finite_reports_bad_node():
    st = clifford_torus(8, 8)
    st.positions[3, 2, 1] = np.nan
    st.positions[5, 0, 3] = np.inf
    with pytest.raises(NonFinite) as err:
        st.require_finite()
    assert err.value.node == (3, 2)
    assert str(err.value) == "non-finite position at node (3, 2)"


def test_periodic_part_strips_seam_ramp():
    st = lagrangian_graph(16, 16, 0.1)
    per = st.periodic_components().transpose(1, 2, 0)
    # Coordinate 0 is the ramp u itself; coordinate 2 is the ramp v.
    assert np.abs(per[..., 0]).max() < 1e-12
    assert np.abs(per[..., 2]).max() < 1e-12
    # The other two coordinates are untouched.
    np.testing.assert_array_equal(per[..., 1], st.positions[..., 1])
    np.testing.assert_array_equal(per[..., 3], st.positions[..., 3])


def test_position_derivatives_restore_seam_slope():
    st = lagrangian_graph(16, 16, 0.1)
    f_u, f_v, f_uu, f_uv, f_vv = (d.transpose(1, 2, 0)
                                  for d in position_derivatives(st))
    np.testing.assert_allclose(f_u[..., 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(f_v[..., 2], 1.0, atol=1e-12)
    # Oracle: x2(u, v) = 0.1 cos(u) sin(v) has du-derivative -0.1 sin sin.
    u = st.grid.axis_coords(0)[:, None]
    v = st.grid.axis_coords(1)[None, :]
    assert np.abs(f_u[..., 1] + 0.1 * np.sin(u) * np.sin(v)).max() < 5e-4
    assert np.abs(f_uv[..., 1] + 0.1 * np.sin(u) * np.cos(v)).max() < 5e-4
    assert np.abs(f_uu[..., 1] + 0.1 * np.cos(u) * np.sin(v)).max() < 5e-4
    assert np.abs(f_vv[..., 1] + 0.1 * np.cos(u) * np.sin(v)).max() < 5e-4


def test_mixed_partials_commute_to_stencil_accuracy():
    st = lagrangian_graph(32, 32, 0.1)
    g = st.grid
    per = st.periodic_components().transpose(1, 2, 0)
    from mcf4d.grid import scalar_derivative
    f_u = scalar_derivative(per, g, 0, 1).transpose(2, 0, 1)
    f_uv = scalar_derivative(f_u, g, 1, 1)
    f_v = scalar_derivative(per.transpose(2, 0, 1), g, 1, 1)
    f_vu = scalar_derivative(f_v.transpose(1, 2, 0), g, 0, 1)
    assert np.abs(f_uv - f_vu.transpose(2, 0, 1)).max() < 1e-6


def test_transformed_applies_scale_rotation_offset():
    st = clifford_torus(8, 8)
    offset = np.array([0.1, -0.2, 0.3, 0.0])
    theta = 0.4
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                   [np.sin(theta), np.cos(theta)]]
    out = st.transformed(scale=2.0, offset=offset, rotation=rot, time=7.0)
    expect = 2.0 * (st.positions - offset) @ rot.T
    np.testing.assert_allclose(out.positions, expect, atol=1e-14)
    assert out.time == 7.0
    np.testing.assert_allclose(out.shift1, 2.0 * rot @ st.shift1, atol=1e-14)


def test_copy_is_independent():
    st = clifford_torus(8, 8)
    cp = st.copy()
    cp.positions[0, 0, 0] = 99.0
    assert st.positions[0, 0, 0] != 99.0


@pytest.mark.parametrize("field, value", [
    ("time", np.nan), ("time", np.inf), ("shift1", np.nan),
    ("shift1", -np.inf), ("shift2", np.inf)])
def test_state_rejects_a_non_finite_time_or_seam_shift(field, value):
    g = ParamGrid(8, 8, 0.1, 0.1, True, True)
    args = {"time": 0.0, "shift1": np.zeros(4), "shift2": np.zeros(4)}
    if field == "time":
        args["time"] = value
    else:
        args[field][1] = value
    with pytest.raises(BadParameter, match=f"{field} must be finite"):
        SurfaceState(g, np.zeros((8, 8, 4)), **args)


def test_state_notes_its_seams_once():
    graph, torus = lagrangian_graph(8, 8), clifford_torus(8, 8)
    assert (graph.seam1, graph.seam2) == (True, True)
    assert (torus.seam1, torus.seam2) == (False, False)
    g = ParamGrid(8, 8, 0.1, 0.1, False, True)
    # A zero shift of either sign is no seam, on a clamped axis too.
    st = SurfaceState(g, np.zeros((8, 8, 4)), shift1=[-0.0, 0.0, 0.0, 0.0],
                      shift2=[0.0, 0.0, 1.0, 0.0])
    assert (st.seam1, st.seam2) == (False, True)
    ramps, slope1, slope2 = st.seam_data()
    assert [r.shape for r in ramps] == [(4, 1, 8)]
    assert slope1 is None and slope2.shape == (4, 1, 1)
    assert not any(a.flags.writeable for a in (*ramps, slope2))


# Seam data: built once per state and shared by the states a run, a stage
# or a copy make from it.

def _seam_bytes(state):
    ramps, *slopes = state.seam_data()
    return [a.tobytes() for a in (*ramps, *slopes)]


@pytest.mark.parametrize("dt", [1e-3, None], ids=["rk4", "rkc"])
def test_a_run_its_stages_and_copies_share_one_seam_data(dt, monkeypatch):
    initial = lagrangian_graph(16, 16, 0.1).transformed(
        rotation=su2_real(np.random.default_rng(9)))
    built = count_bundles(monkeypatch)
    trace = run_flow(initial, RunControls(dt=dt, max_steps=3))
    assert len(built) > len(trace.states) == 4
    data = trace.states[-1].seam_data()
    for state in [*built, *trace.states, trace.states[-1].copy()]:
        assert state.seam_data() is data
        assert state.seam1 and state.seam2
    # The run built it from its copy of the initial state, bitwise what the
    # initial state builds for itself and then shares with its own copies.
    own = initial.seam_data()
    assert own is not data
    assert _seam_bytes(initial) == _seam_bytes(trace.states[-1])
    assert initial.copy().seam_data() is own
    scaled = initial.transformed(scale=2.0)
    assert scaled.seam_data() is not data
    for got, want in zip(scaled.seam_data()[0], data[0]):
        assert got is not want
        np.testing.assert_allclose(got, 2.0 * want, rtol=1e-15)


def test_moved_state_has_every_field_of_a_checked_state():
    # Same names in the same order, so the three share one attribute layout;
    # a run's accepted state is itself made by moved.
    names = [f.name for f in dataclasses.fields(SurfaceState)]
    accepted = run_flow(lagrangian_graph(8, 8),
                        RunControls(dt=1e-3, max_steps=2)).states[-1]
    for state in (lagrangian_graph(8, 8), clifford_torus(8, 8), accepted):
        assert list(vars(state)) == names
        assert list(vars(state.moved(state.positions, 1.0))) == names
        assert list(vars(state.copy())) == names


# Bitwise guards of the kept seam data: the ramps and slopes as
# periodic_components and position_derivatives formed them on every call
# before, out of place, kept here as their reference.

def _ramp_periodic_components(state):
    """Positions minus the seam ramps, each ramp formed on the call."""
    out = component_major(state.positions)
    g = state.grid
    if state.shift1.any():
        frac = g.axis_coords(0) / (g.n1 * g.spacing1)
        out = out - state.shift1[:, None, None] * frac[None, :, None]
    if state.shift2.any():
        frac = g.axis_coords(1) / (g.n2 * g.spacing2)
        out = out - state.shift2[:, None, None] * frac[None, None, :]
    return out


def _ramp_position_derivatives(state):
    """position_derivatives on :func:`_ramp_periodic_components`, each
    slope formed on the call; the five fields stacked as the kernel
    returns them."""
    g = state.grid
    per = _ramp_periodic_components(state)
    f_u = scalar_derivative(per, g, 0, 1)
    f_uu = scalar_derivative(per, g, 0, 2)
    f_v = scalar_derivative(per, g, 1, 1)
    f_vv = scalar_derivative(per, g, 1, 2)
    f_uv = scalar_derivative(f_u, g, 1, 1)
    if state.shift1.any():
        f_u += (state.shift1 / (g.n1 * g.spacing1))[:, None, None]
    if state.shift2.any():
        f_v += (state.shift2 / (g.n2 * g.spacing2))[:, None, None]
    return np.stack((f_u, f_v, f_uu, f_uv, f_vv))


def _one_seam_graph(n1, n2, amplitude, axis):
    """Graph over a cylinder with a seam shift on ``axis`` only: the other
    axis runs round the circle in (x1, y1), this one along the x2 line, and
    y2 = amplitude sin(u + v)."""
    grid = ParamGrid(n1, n2, 2.0 * np.pi / n1, 2.0 * np.pi / n2, True, True)
    u = grid.axis_coords(0)[:, None] * np.ones((1, n2))
    v = grid.axis_coords(1)[None, :] * np.ones((n1, 1))
    line, circle = (u, v) if axis == 0 else (v, u)
    positions = np.stack([np.cos(circle), np.sin(circle), line,
                          amplitude * np.sin(u + v)], axis=-1)
    shift = np.array([0.0, 0.0, 2.0 * np.pi, 0.0])
    zero = np.zeros(4)
    return SurfaceState(grid, positions, shift1=shift if axis == 0 else zero,
                        shift2=zero if axis == 0 else shift)


@hs.composite
def seam_shifted_states(draw):
    """A seam-shifted graph moved by a Haar SU(2) rotation, an offset and a
    scale."""
    name = draw(hs.sampled_from(["lagrangian_graph", "symplectic_graph",
                                 "u_seam_only", "v_seam_only"]))
    n1, n2 = draw(hs.integers(8, 24)), draw(hs.integers(8, 24))
    amplitude = draw(hs.floats(0.01, 0.3))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    state = {"lagrangian_graph": lambda: lagrangian_graph(n1, n2, amplitude),
             "symplectic_graph": lambda: symplectic_graph(n1, n2, amplitude),
             "u_seam_only": lambda: _one_seam_graph(n1, n2, amplitude, 0),
             "v_seam_only": lambda: _one_seam_graph(n1, n2, amplitude, 1),
             }[name]()
    return state.transformed(scale=draw(hs.floats(0.25, 4.0)),
                             offset=rng.uniform(-2.0, 2.0, 4),
                             rotation=su2_real(rng))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(state=seam_shifted_states())
def test_kept_seam_data_is_bitwise_the_per_call_ramps(state):
    assert state.seam1 or state.seam2
    got = state.periodic_components()
    want = _ramp_periodic_components(state)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # A stage state reads its own stage array, not a copy of it.
    y = component_major(state.positions)
    stage = state.moved(y.transpose(1, 2, 0), state.time)
    assert stage.periodic_components().tobytes() == want.tobytes()
    assert not np.shares_memory(stage.periodic_components(), y)
    derivs = position_derivatives(state)
    for got, want in zip(derivs, _ramp_position_derivatives(state)):
        assert got.tobytes() == want.tobytes()
    # Five disjoint slots of one stack.
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(derivs) for b in derivs[i + 1:])
    # Every bundle field, built on the per-call derivatives.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "position_derivatives",
                   _ramp_position_derivatives)
        want = _fields(GeometryBundle(state))
    got = _fields(GeometryBundle(state))
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
