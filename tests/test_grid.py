"""Grid, surface-state, and seam-handling checks.

Oracle for the seam logic: a graph whose first coordinate equals the
parameter u carries a (2 pi, 0, 0, 0) seam shift, so its periodic part must
have that coordinate identically zero and its u-derivative must be exactly
one after the ramp is restored.
"""

import numpy as np
import pytest

from mcf4d.errors import BadParameter, NonFinite
from mcf4d.grid import (MAX_AXIS_NODES, ParamGrid, SurfaceState,
                        position_derivatives)
from mcf4d.scenarios import clifford_torus, lagrangian_graph


def test_axis_coords_start_at_zero_with_given_spacing():
    g = ParamGrid(8, 12, 0.5, 0.25, True, False)
    np.testing.assert_allclose(g.axis_coords(0), 0.5 * np.arange(8))
    np.testing.assert_allclose(g.axis_coords(1), 0.25 * np.arange(12))
    assert g.shape == (8, 12)
    assert g.node_count == 96
    assert g.node_weight() == 0.125


def test_grid_rejects_tiny_axes_and_bad_spacing():
    with pytest.raises(BadParameter):
        ParamGrid(4, 12, 0.5, 0.25, True, True)
    with pytest.raises(BadParameter):
        ParamGrid(8, 12, -0.5, 0.25, True, True)


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
    with pytest.raises(BadParameter):
        SurfaceState(g, np.zeros((8, 8, 4)), shift1=np.array([1.0, 0, 0, 0]))


def test_require_finite_reports_bad_node():
    st = clifford_torus(8, 8)
    st.positions[3, 2, 1] = np.nan
    with pytest.raises(NonFinite):
        st.require_finite()


def test_periodic_part_strips_seam_ramp():
    st = lagrangian_graph(16, 16, 0.1)
    per = st.periodic_part()
    # Coordinate 0 is the ramp u itself; coordinate 2 is the ramp v.
    assert np.abs(per[..., 0]).max() < 1e-12
    assert np.abs(per[..., 2]).max() < 1e-12
    # The other two coordinates are untouched.
    np.testing.assert_array_equal(per[..., 1], st.positions[..., 1])
    np.testing.assert_array_equal(per[..., 3], st.positions[..., 3])


def test_position_derivatives_restore_seam_slope():
    st = lagrangian_graph(16, 16, 0.1)
    f_u, f_v, f_uu, f_uv, f_vv = position_derivatives(st)
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
    per = st.periodic_part()
    from mcf4d.grid import scalar_derivative
    f_uv = scalar_derivative(scalar_derivative(per, g, 0, 1), g, 1, 1)
    f_vu = scalar_derivative(scalar_derivative(per, g, 1, 1), g, 0, 1)
    assert np.abs(f_uv - f_vu).max() < 1e-6


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
