"""Geometry-bundle checks against closed-form surfaces.

Oracles, computed independently in this file:
  - flat patches: identity metric, vanishing curvature, exact angles;
  - round sphere radius r: |A|^2 = 2 / r^2, |H|^2 = 4 / r^2;
  - product of two circles radius r: cos(alpha) = 0 exactly on the grid,
    angle unit -exp(i (u + v)), |H|^2 = |A|^2 = 2 / r^2;
  - gradient graphs: angle unit from the determinant formula
    det(I + i Hess w) normalized;
  - the einsum reference below: the generic tensor contractions that
    ``build_geometry`` and the field operators replaced with 2x2 algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d.errors import DegenerateMetric
from mcf4d.geometry import (GeometryBundle, J_DEGENERACY_SIN2, J_SCALE,
                            PROJECTION_FLOOR, Curvature, _tangent_frame,
                            build_geometry, cross4, gradient_inner,
                            gradient_sq, holomorphic_pairing, laplace_beltrami,
                            nabla_bar_j2_from_shape, normal_gradient_sq,
                            omega_pairing, plane_angles, project_normal)
from mcf4d.grid import (ParamGrid, SurfaceState, position_derivatives,
                        scalar_derivative)
from mcf4d.scenarios import (clifford_torus, complex_line, lagrangian_graph,
                             plane, sphere_patch, symplectic_graph)

from conftest import su2_real


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


# Einsum reference: the tensor formulas the closed-form bundle replaced.

def _reference_normal_frame(e1, e2, basis_order):
    """First normal by the per-node 4x4 projector, rows in basis order."""
    proj = -e1[..., :, None] * e1[..., None, :] - e2[..., :, None] * e2[..., None, :]
    idx = np.arange(4)
    proj[..., idx, idx] += 1.0
    candidates = proj[..., list(basis_order), :]
    usable = np.linalg.norm(candidates, axis=-1) >= PROJECTION_FLOOR
    assert usable.any(axis=-1).all()
    first = np.argmax(usable, axis=-1)
    v1 = np.take_along_axis(candidates, first[..., None, None], axis=-2)[..., 0, :]
    v1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = cross4(e1, e2, v1)
    v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    return np.stack([v1, v2], axis=-2)


def _reference_j(frame_t, frame_n, coeffs, cos_alpha, grid):
    """|grad J|^2 from all 16 entries of the J field."""
    e1, e2 = frame_t[..., 0, :], frame_t[..., 1, :]
    v1, v2 = frame_n[..., 0, :], frame_n[..., 1, :]

    def skew(a, b):
        return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]

    j_field = skew(e2, e1) + skew(v2, v1)
    dj = np.stack([scalar_derivative(j_field, grid, 0, 1),
                   scalar_derivative(j_field, grid, 1, 1)], axis=-3)
    frame_dj = np.einsum('...ki,...iab->...kab', coeffs, dj)
    value = J_SCALE * np.einsum('...kab,...kab->...', frame_dj, frame_dj)
    return np.where(1.0 - cos_alpha ** 2 < J_DEGENERACY_SIN2, np.nan, value)


def _reference_bundle(state, tangent_rotation, normal_basis_order):
    f_u, f_v, f_uu, f_uv, f_vv = position_derivatives(state)
    curv = Curvature(f_u, f_v, f_uu, f_uv, f_vv)
    first = np.stack([f_u, f_v], axis=-2)
    hess = np.stack([np.stack([f_uu, f_uv], axis=-2),
                     np.stack([f_uv, f_vv], axis=-2)], axis=-3)
    proj_t = np.einsum('...ija,...la->...ijl', hess, first)
    christoffel = np.einsum('...kl,...ijl->...kij', curv.inverse, proj_t)
    frame_t, coeffs = _tangent_frame(f_u, f_v, curv.metric, curv.det_g,
                                     tangent_rotation)
    frame_n = _reference_normal_frame(frame_t[..., 0, :], frame_t[..., 1, :],
                                      normal_basis_order)
    a11, a12, a22 = curv.normal_hessian
    second = np.stack([np.stack([a11, a12], axis=-2),
                       np.stack([a12, a22], axis=-2)], axis=-3)
    h = np.einsum('...ijc,...nc->...nij', second, frame_n)
    h_frame = np.einsum('...ai,...bj,...nij->...nab', coeffs, coeffs, h)
    cos_alpha, unit, omega_norm, degenerate = plane_angles(
        frame_t[..., 0, :], frame_t[..., 1, :], 1.0)
    return GeometryBundle(
        grid=state.grid, positions=state.positions, first_derivs=first,
        metric=curv.metric, inverse_metric=curv.inverse, det_g=curv.det_g,
        area_element=np.sqrt(curv.det_g), christoffel=christoffel,
        tangent_frame=frame_t, tangent_coeffs=coeffs, normal_frame=frame_n,
        second_ff=h, second_ff_frame=h_frame,
        mean_curvature=curv.mean_curvature,
        mean_normal=np.einsum('...nc,...c->...n', frame_n,
                              curv.mean_curvature),
        norm_A2=curv.norm_A2, norm_H2=curv.norm_H2, cos_alpha=cos_alpha,
        lag_angle_unit=unit, lag_omega_norm=omega_norm,
        omega_degenerate=degenerate,
        nabla_bar_j2=_reference_j(frame_t, frame_n, coeffs, cos_alpha,
                                  state.grid))


def _reference_operators(f, g, x, b):
    """Einsum forms of the field operators on scalars f, g and 4-vector x."""
    grid = b.grid
    f_u = scalar_derivative(f, grid, 0, 1)
    f_v = scalar_derivative(f, grid, 1, 1)
    f_uv = scalar_derivative(f_u, grid, 1, 1)
    grad = np.stack([f_u, f_v], axis=-1)
    grad_g = np.stack([scalar_derivative(g, grid, 0, 1),
                       scalar_derivative(g, grid, 1, 1)], axis=-1)
    hess = np.stack([np.stack([scalar_derivative(f, grid, 0, 2), f_uv], -1),
                     np.stack([f_uv, scalar_derivative(f, grid, 1, 2)], -1)],
                    axis=-2)
    correction = np.einsum('...kij,...k->...ij', b.christoffel, grad)
    coord = np.stack([scalar_derivative(x, grid, 0, 1),
                      scalar_derivative(x, grid, 1, 1)], axis=-2)
    deriv = np.einsum('...ki,...ic->...kc', b.tangent_coeffs, coord)
    comps = np.einsum('...nc,...kc->...kn', b.normal_frame, deriv)
    normal = np.einsum('...nc,...c->...n', b.normal_frame, x)
    return {
        "laplace_beltrami": np.einsum('...ij,...ij->...', b.inverse_metric,
                                      hess - correction),
        "gradient_sq": np.einsum('...ij,...i,...j->...', b.inverse_metric,
                                 grad, grad),
        "gradient_inner": np.einsum('...ij,...i,...j->...', b.inverse_metric,
                                    grad, grad_g),
        "project_normal": np.einsum('...n,...nc->...c', normal,
                                    b.normal_frame),
        "normal_gradient_sq": np.einsum('...kn,...kn->...', comps, comps),
    }


ORACLE_SURFACES = {
    "clifford_torus": lambda: clifford_torus(32, 32),
    "lagrangian_graph": lambda: lagrangian_graph(32, 32, 0.1),
    "symplectic_graph": lambda: symplectic_graph(32, 32, 0.1),
}


def _assert_field_close(got, expect, name):
    # The oracle surfaces have unit scale, so an entry that vanishes
    # analytically (Christoffel symbols of the flat torus metric, say) is the
    # rounding noise of unit-size terms that cancel, on both routes.
    scale = max(1.0, np.nanmax(np.abs(expect)))
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * scale,
                               err_msg=name)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(name=hs.sampled_from(sorted(ORACLE_SURFACES)),
       seed=hs.integers(0, 2 ** 32 - 1),
       order=hs.permutations(range(4)))
def test_closed_form_bundle_matches_einsum_reference(name, seed, order):
    rng = np.random.default_rng(seed)
    state = ORACLE_SURFACES[name]().transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    rotation = rng.uniform(0.0, 2.0 * np.pi, (state.grid.n1, state.grid.n2))
    got = build_geometry(state, compute_j=True, tangent_rotation=rotation,
                         normal_basis_order=tuple(order))
    expect = _reference_bundle(state, rotation, tuple(order))
    for field in expect.__dataclass_fields__:
        a, b = getattr(got, field), getattr(expect, field)
        if field == "grid":
            assert a is b
        elif b.dtype == bool:
            np.testing.assert_array_equal(a, b, err_msg=field)
        elif field == "nabla_bar_j2":
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
            _assert_field_close(a[~np.isnan(a)], b[~np.isnan(b)], field)
        else:
            _assert_field_close(a, b, field)
    # Generic fields: two scalars and a vector field with tangential part.
    f = got.cos_alpha + got.positions[..., 0]
    g = got.positions[..., 1] * got.positions[..., 2]
    x = got.mean_curvature + got.first_derivs[..., 0, :]
    ops = {"laplace_beltrami": laplace_beltrami(f, got),
           "gradient_sq": gradient_sq(f, got),
           "gradient_inner": gradient_inner(f, g, got),
           "project_normal": project_normal(x, got),
           "normal_gradient_sq": normal_gradient_sq(x, got)}
    ref = _reference_operators(f, g, x, got)
    for key, value in ops.items():
        _assert_field_close(value, ref[key], key)
