"""Geometry-bundle checks against closed-form surfaces.

Oracles, computed independently in this file:
  - flat patches: identity metric, vanishing curvature, exact angles;
  - round sphere radius r: |A|^2 = 2 / r^2, |H|^2 = 4 / r^2;
  - product of two circles radius r: cos(alpha) = 0 exactly on the grid,
    angle unit -exp(i (u + v)), |H|^2 = |A|^2 = 2 / r^2;
  - gradient graphs: angle unit from the determinant formula
    det(I + i Hess w) normalized.
"""

import numpy as np
import pytest

from mcf4d.errors import DegenerateMetric
from mcf4d.geometry import (build_geometry, cross4, gradient_inner,
                            gradient_sq, holomorphic_pairing, laplace_beltrami,
                            nabla_bar_j2_from_shape, omega_pairing,
                            project_normal)
from mcf4d.grid import ParamGrid, SurfaceState
from mcf4d.scenarios import (clifford_torus, complex_line, lagrangian_graph,
                             plane, sphere_patch, symplectic_graph)


def test_omega_pairing_oracle():
    # omega = dx1 ^ dy1 + dx2 ^ dy2 on basis vectors.
    e = np.eye(4)
    assert omega_pairing(e[0], e[1]) == 1.0
    assert omega_pairing(e[1], e[0]) == -1.0
    assert omega_pairing(e[2], e[3]) == 1.0
    assert omega_pairing(e[0], e[2]) == 0.0


def test_holomorphic_pairing_oracle():
    # dz1 ^ dz2 with z1 = x1 + i y1, z2 = x2 + i y2.
    e = np.eye(4)
    assert holomorphic_pairing(e[0], e[2]) == 1.0 + 0.0j
    assert holomorphic_pairing(e[1], e[3]) == -1.0 + 0.0j
    assert holomorphic_pairing(e[0], e[3]) == 1.0j
    assert holomorphic_pairing(e[0], e[1]) == 0.0j


def test_cross4_completes_orthonormal_frames():
    rng = np.random.default_rng(11)
    m = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    out = cross4(m[0], m[1], m[2])
    assert abs(abs(out @ m[3]) - 1.0) < 1e-12
    for k in range(3):
        assert abs(out @ m[k]) < 1e-12


def test_lagrangian_plane_bundle():
    b = build_geometry(plane(16, 16), compute_j=False)
    np.testing.assert_allclose(b.metric[..., 0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(b.metric[..., 0, 1], 0.0, atol=1e-12)
    assert np.abs(b.second_ff).max() < 1e-10
    assert np.abs(b.mean_curvature).max() < 1e-10
    assert np.abs(b.cos_alpha).max() < 1e-12
    np.testing.assert_allclose(b.lag_angle_unit, 1.0 + 0.0j, atol=1e-12)
    np.testing.assert_allclose(b.cos_theta, 1.0, atol=1e-12)


def test_complex_line_is_holomorphic_and_omega_degenerate():
    b = build_geometry(complex_line(16, 16), compute_j=False)
    np.testing.assert_allclose(b.cos_alpha, 1.0, atol=1e-12)
    assert b.omega_degenerate.all()
    assert np.abs(b.lag_omega_norm).max() < 1e-12


def test_angle_identity_cos2_plus_omega2():
    for st in (clifford_torus(24, 24), lagrangian_graph(24, 24, 0.1),
               symplectic_graph(24, 24, 0.1), sphere_patch(24, 32)):
        b = build_geometry(st, compute_j=False)
        ident = b.cos_alpha ** 2 + b.lag_omega_norm ** 2
        np.testing.assert_allclose(ident, 1.0, atol=1e-10)


def test_sphere_patch_curvatures():
    r = 1.3
    b = build_geometry(sphere_patch(24, 32, radius=r), compute_j=False)
    assert np.abs(b.norm_A2 - 2.0 / r ** 2).max() < 1e-3
    assert np.abs(b.norm_H2 - 4.0 / r ** 2).max() < 2e-3
    # H points back along the position vector with magnitude 2 / r.
    expect = -2.0 / r ** 2 * b.positions
    assert np.abs(b.mean_curvature - expect).max() < 2e-3
    # Finer grids do better.
    b2 = build_geometry(sphere_patch(48, 64, radius=r), compute_j=False)
    assert (np.abs(b2.norm_A2 - 2.0 / r ** 2).max()
            < 0.2 * np.abs(b.norm_A2 - 2.0 / r ** 2).max())


def test_sphere_kahler_angle_tracks_polar_angle():
    st = sphere_patch(24, 32)
    b = build_geometry(st, compute_j=False)
    theta = 0.6 + st.grid.axis_coords(0)
    expect = np.cos(theta)[:, None] * np.ones((1, 32))
    assert np.abs(np.abs(b.cos_alpha) - np.abs(expect)).max() < 1e-3


def test_torus_angles_exact():
    st = clifford_torus(32, 32)
    b = build_geometry(st, compute_j=False)
    assert np.abs(b.cos_alpha).max() < 1e-13
    u = st.grid.axis_coords(0)[:, None]
    v = st.grid.axis_coords(1)[None, :]
    expect = -np.exp(1j * (u + v))
    assert np.abs(b.lag_angle_unit - expect).max() < 1e-11


def test_torus_curvatures_and_pinching_quantity():
    r = 1.0
    b = build_geometry(clifford_torus(32, 32, radius=r), compute_j=True)
    assert np.abs(b.norm_H2 - 2.0 / r ** 2).max() < 5e-3
    assert np.abs(b.norm_A2 - 2.0 / r ** 2).max() < 5e-3
    assert np.nanmax(np.abs(b.nabla_bar_j2 - 2.0 / r ** 2)) < 1e-2


def test_lagrangian_graph_angle_against_determinant_formula():
    amp, n = 0.1, 32
    st = lagrangian_graph(n, n, amp)
    b = build_geometry(st, compute_j=False)
    assert np.abs(b.cos_alpha).max() < 1e-10
    u = st.grid.axis_coords(0)[:, None]
    v = st.grid.axis_coords(1)[None, :]
    w_uu = -amp * np.sin(u) * np.sin(v)
    w_vv = -amp * np.sin(u) * np.sin(v)
    w_uv = amp * np.cos(u) * np.cos(v)
    det = (1.0 + 1j * w_uu) * (1.0 + 1j * w_vv) + w_uv ** 2
    expect = det / np.abs(det)
    assert np.abs(b.lag_angle_unit - expect).max() < 1e-3


def test_symplectic_graph_angle_against_pullback_formula():
    eps, n = 0.1, 32
    st = symplectic_graph(n, n, eps)
    b = build_geometry(st, compute_j=False)
    u = st.grid.axis_coords(0)[:, None]
    v = st.grid.axis_coords(1)[None, :]
    omega_uv = 1.0 - eps ** 2 * np.cos(u) * np.sin(v)
    det_g = (1.0 + eps ** 2 * np.cos(u) ** 2) * (1.0 + eps ** 2 * np.sin(v) ** 2)
    expect = omega_uv / np.sqrt(det_g)
    assert np.abs(b.cos_alpha - expect).max() < 1e-3
    assert b.cos_alpha.min() > 0.9


def test_frames_are_orthonormal_and_adapted():
    for st in (clifford_torus(16, 16), sphere_patch(16, 16),
               lagrangian_graph(16, 16, 0.1)):
        b = build_geometry(st, compute_j=False)
        frames = np.concatenate([b.tangent_frame, b.normal_frame], axis=2)
        gram = np.einsum("ijad,ijbd->ijab", frames, frames)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape),
                                   atol=1e-10)


def test_second_ff_is_symmetric_and_consistent_across_frames():
    b = build_geometry(clifford_torus(16, 16), compute_j=False)
    np.testing.assert_allclose(b.second_ff[..., 0, 1], b.second_ff[..., 1, 0],
                               atol=1e-12)
    # |H|^2 must equal the squared norm of the mean curvature vector.
    np.testing.assert_allclose(
        b.norm_H2, np.sum(b.mean_curvature ** 2, axis=-1), atol=1e-12)
    # And the normal components must reassemble the vector.
    rebuilt = np.einsum("ija,ijad->ijd", b.mean_normal, b.normal_frame)
    np.testing.assert_allclose(rebuilt, b.mean_curvature, atol=1e-12)


def test_trace_inequality_between_curvature_norms():
    for st in (clifford_torus(16, 16), sphere_patch(16, 16),
               lagrangian_graph(16, 16, 0.2)):
        b = build_geometry(st, compute_j=False)
        assert np.all(2.0 * b.norm_A2 - b.norm_H2 > -1e-10)


def test_project_normal_annihilates_tangents():
    b = build_geometry(clifford_torus(16, 16), compute_j=False)
    assert np.abs(project_normal(b.tangent_frame[:, :, 0], b)).max() < 1e-12
    h_proj = project_normal(b.mean_curvature, b)
    np.testing.assert_allclose(h_proj, b.mean_curvature, atol=1e-10)


def test_laplace_and_gradient_on_unit_torus():
    st = clifford_torus(48, 48)
    b = build_geometry(st, compute_j=False)
    u = st.grid.axis_coords(0)[:, None] * np.ones((1, 48))
    f = np.sin(u)
    assert np.abs(laplace_beltrami(f, b) + f).max() < 1e-4
    assert np.abs(gradient_sq(f, b) - np.cos(u) ** 2).max() < 1e-4
    # Polarization: <grad f, grad f> equals gradient_sq.
    np.testing.assert_allclose(gradient_inner(f, f, b), gradient_sq(f, b),
                               atol=1e-12)


def test_laplace_beltrami_on_sphere_eigenfunction():
    r = 1.0
    st = sphere_patch(32, 48, radius=r)
    b = build_geometry(st, compute_j=False)
    f = st.positions[..., 2]
    assert np.abs(laplace_beltrami(f, b) + 2.0 / r ** 2 * f).max() < 5e-3


def test_gauge_choices_do_not_move_scalars():
    st = lagrangian_graph(32, 32, 0.1)
    base = build_geometry(st, compute_j=True)
    rng = np.random.default_rng(7)
    rot = rng.uniform(0.0, 2.0 * np.pi, size=(32, 32))
    alt = build_geometry(st, compute_j=True, tangent_rotation=rot,
                         normal_basis_order=(2, 0, 3, 1))
    for name in ("norm_A2", "norm_H2", "cos_alpha"):
        assert np.abs(getattr(alt, name) - getattr(base, name)).max() < 1e-8
    assert np.abs(alt.lag_angle_unit - base.lag_angle_unit).max() < 1e-8
    assert np.abs(alt.mean_curvature - base.mean_curvature).max() < 1e-8
    assert np.nanmax(np.abs(alt.nabla_bar_j2 - base.nabla_bar_j2)) < 1e-8


def test_j_gradient_direct_vs_shape_expression():
    # Both routes carry independent fourth-order stencil error; they agree to
    # that error and converge together under refinement.
    for build in (lagrangian_graph, symplectic_graph):
        diffs = []
        for n in (32, 64):
            b = build_geometry(build(n, n, 0.1), compute_j=True)
            diffs.append(np.nanmax(np.abs(b.nabla_bar_j2
                                          - nabla_bar_j2_from_shape(b))))
        assert diffs[0] < 1e-4
        assert diffs[0] / diffs[1] > 8.0


def test_degenerate_metric_raises():
    g = ParamGrid(8, 8, 0.1, 0.1, True, True)
    with pytest.raises(DegenerateMetric):
        build_geometry(SurfaceState(g, np.zeros((8, 8, 4))))


def test_torus_quadrature_area_converges_at_fourth_order():
    # The area element inherits the stencil bias of the first derivatives,
    # so the quadrature error drops 16x per refinement.
    r = 0.8
    exact = 4.0 * np.pi ** 2 * r ** 2
    errs = []
    for n in (32, 64):
        b = build_geometry(clifford_torus(n, n, radius=r), compute_j=False)
        errs.append(abs(float(np.sum(b.quadrature_weights())) - exact))
    assert errs[0] / exact < 2e-4
    assert errs[0] / errs[1] > 12.0
