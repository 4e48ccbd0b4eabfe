"""Geometry-bundle checks against closed-form surfaces.

Oracles, computed independently in this file:
  - flat patches: identity metric, vanishing curvature, exact angles;
  - round sphere radius r: |A|^2 = 2 / r^2, |H|^2 = 4 / r^2;
  - product of two circles radius r: cos(alpha) = 0 exactly on the grid,
    angle unit -exp(i (u + v)), |H|^2 = |A|^2 = 2 / r^2;
  - gradient graphs: angle unit from the determinant formula
    det(I + i Hess w) normalized;
  - ``twisted_graph``: a graph with normal curvature of both signs, the
    one surface on which the K^perp term of |grad J|^2 matters;
  - the frame oracle below (``frame_oracle``): an orthonormal tangent frame
    by Gram-Schmidt, a normal frame by projecting the ambient basis, the
    second fundamental form in those frames and the generic tensor
    contractions, which the frame-free bundle and field operators replaced;
    its tangent rotation and normal basis order are free gauges;
  - ``_reference_j``: |grad J|^2 by differentiating all 16 entries of the
    J field, against the bundle's closed form |A|^2 - 2 K^perp;
  - ``_node_major_bundle``: the node-major (n1, n2, 4) computation that the
    component-major kernel replaced, on explicit derivative-matrix products;
  - ``_wedge_plane_angles``: the angles from all six components of a ^ b,
    the computation the three-form kernel of ``plane_angles`` replaced;
  - ``omega_pairing`` and ``holomorphic_pairing``: omega and the complex
    dz1 ^ dz2 in direct (complex) arithmetic, and the normal-part vectors
    A_ij with their double traces and 4x4 determinants, the vector forms of
    the bundle's angles, |A|^2, sum <H, A_ij>^2 and |grad J|^2, which come
    from real scalar products and the Hessian F_ij.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d.errors import DegenerateMetric, FrameInconsistent, NonFinite
from mcf4d.flow import MappedStates
from mcf4d.geometry import (COS_CLAMP_EXCESS, OMEGA_NORM_FLOOR, GeometryBundle,
                            ScaledBundle, _dot, build_geometry, gradient_inner,
                            gradient_sq, laplace_beltrami, normal_gradient_sq,
                            plane_angles)
from mcf4d.grid import (ParamGrid, SurfaceState, component_major,
                        position_derivatives, scalar_derivative)
from mcf4d.scenarios import (clifford_torus, complex_line,
                             grim_reaper_product, lagrangian_graph, plane,
                             sphere_patch, symplectic_graph)
from mcf4d.stencils import BANDED_MIN_NODES, derivative_matrix

from conftest import su2_real


def omega_pairing(a, b):
    """Standard symplectic form dx1^dy1 + dx2^dy2 on two 4-vector fields."""
    return a[0] * b[1] - a[1] * b[0] + a[2] * b[3] - a[3] * b[2]


def holomorphic_pairing(a, b):
    """Complex form dz1^dz2 on two 4-vector fields (complex-valued)."""
    za1 = a[0] + 1j * a[1]
    za2 = a[2] + 1j * a[3]
    zb1 = b[0] + 1j * b[1]
    zb2 = b[2] + 1j * b[3]
    return za1 * zb2 - zb1 * za2


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


def _omega_norm(b):
    """|Omega(e1, e2)| and its degeneracy mask, from the bundle's F_u ^ F_v."""
    return plane_angles(b.f_u, b.f_v, b.area_element)[3:]


def test_lagrangian_plane_bundle():
    b = build_geometry(plane(16, 16))
    np.testing.assert_allclose(b.g11, 1.0, atol=1e-12)
    np.testing.assert_allclose(b.g12, 0.0, atol=1e-12)
    assert max(np.abs(b.project_normal(x.copy())).max()
               for x in b.hessian) < 1e-10
    assert np.abs(b.mean_curvature).max() < 1e-10
    assert np.abs(b.cos_alpha).max() < 1e-12
    np.testing.assert_allclose(b.lag_angle_unit, 1.0 + 0.0j, atol=1e-12)
    np.testing.assert_allclose(b.cos_theta, 1.0, atol=1e-12)


def test_complex_line_is_holomorphic_and_omega_degenerate():
    b = build_geometry(complex_line(16, 16))
    np.testing.assert_allclose(b.cos_alpha, 1.0, atol=1e-12)
    omega_norm, degenerate = _omega_norm(b)
    assert degenerate.all()
    assert np.abs(omega_norm).max() < 1e-12


def test_angle_identity_cos2_plus_omega2():
    for st in (clifford_torus(24, 24), lagrangian_graph(24, 24, 0.1),
               symplectic_graph(24, 24, 0.1), sphere_patch(24, 32)):
        b = build_geometry(st)
        ident = b.cos_alpha ** 2 + _omega_norm(b)[0] ** 2
        np.testing.assert_allclose(ident, 1.0, atol=1e-10)


IDENTITY_SURFACES = {
    "clifford_torus": lambda: clifford_torus(24, 24),
    "lagrangian_graph": lambda: lagrangian_graph(24, 24, 0.1),
    "symplectic_graph": lambda: symplectic_graph(24, 24, 0.1),
    "grim_reaper_product": lambda: grim_reaper_product(65, 8),
    "sphere_patch": lambda: sphere_patch(24, 32),
}


def _four_term_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _double_trace(b, pair, x11, x12, x22):
    """g^ik g^jl pair(x_ij, x_kl) over the bundle's inverse metric."""
    p, q, r = b.inv11, b.inv12, b.inv22
    return (p * p * pair(x11, x11) + r * r * pair(x22, x22)
            + 2.0 * q * q * pair(x11, x22)
            + 4.0 * q * (p * pair(x11, x12) + r * pair(x12, x22))
            + 2.0 * (p * r + q * q) * pair(x12, x12))


def _det4(*vectors):
    """Per-node determinant of four (4, n1, n2) vector fields."""
    return np.linalg.det(np.stack(vectors).transpose(2, 3, 0, 1))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(name=hs.sampled_from(sorted(IDENTITY_SURFACES)),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_scalar_products_match_the_vector_forms(name, seed):
    # The bundle's |A|^2, sum <H, A_ij>^2, |grad J|^2 and angles come from
    # scalar inner products and the Hessian; the oracles below form the
    # normal-part vectors A_ij and the complex dz1 ^ dz2.  A seeded SU(2)
    # motion and scale move every ambient component.
    rng = np.random.default_rng(seed)
    state = IDENTITY_SURFACES[name]().transformed(
        scale=10.0 ** rng.uniform(-2.0, 2.0), offset=rng.uniform(-5.0, 5.0, 4),
        rotation=su2_real(rng))
    b = build_geometry(state)
    for x, y in ((b.f_u, b.f_v), (b.hessian[0], b.mean_curvature)):
        np.testing.assert_array_equal(_dot(x, y), _four_term_dot(x, y))
    a11, a12, a22 = (b.project_normal(x.copy()) for x in b.hessian)
    norm_a2 = _double_trace(b, _dot, a11, a12, a22)
    h_dot_a = (_dot(b.mean_curvature, a) for a in (a11, a12, a22))
    k_perp = (b.inv11 * _det4(b.f_u, b.f_v, a11, a12)
              + b.inv12 * _det4(b.f_u, b.f_v, a11, a22)
              + b.inv22 * _det4(b.f_u, b.f_v, a12, a22)) / b.det_g
    for got, oracle in ((b.norm_A2, norm_a2),
                        (b.h_dot_a2, _double_trace(b, np.multiply, *h_dot_a)),
                        (b.nabla_bar_j2, norm_a2 - 2.0 * k_perp)):
        assert np.abs(got - oracle).max() <= 1e-12 * oracle.max()
    cos_alpha = omega_pairing(b.f_u, b.f_v) / b.area_element
    assert np.abs(b.cos_alpha - cos_alpha).max() <= 1e-15
    omega = holomorphic_pairing(b.f_u, b.f_v) / b.area_element
    assert np.abs(_omega_norm(b)[0] - np.abs(omega)).max() <= 1e-15
    # The unit carries the rounding of Omega over |Omega|; the graphs have
    # nodes where Omega vanishes, and near the floor either route may call
    # a node degenerate.
    away = np.abs(omega) > 1e-9
    unit = omega[away] / np.abs(omega[away])
    weight = np.minimum(1.0, np.abs(omega[away]))
    assert (weight * np.abs(b.cos_theta[away] - unit.real)).max() <= 1e-15
    assert (weight * np.abs(b.lag_angle_unit[away] - unit)).max() <= 1e-15
    np.testing.assert_array_equal(b.cos_theta, b.lag_angle_unit.real)


def test_sphere_patch_curvatures():
    r = 1.3
    b = build_geometry(sphere_patch(24, 32, radius=r))
    assert np.abs(b.norm_A2 - 2.0 / r ** 2).max() < 1e-3
    assert np.abs(b.norm_H2 - 4.0 / r ** 2).max() < 2e-3
    # H points back along the position vector with magnitude 2 / r.
    expect = -2.0 / r ** 2 * b.positions
    assert np.abs(b.mean_curvature.transpose(1, 2, 0) - expect).max() < 2e-3
    # Finer grids do better.
    b2 = build_geometry(sphere_patch(48, 64, radius=r))
    assert (np.abs(b2.norm_A2 - 2.0 / r ** 2).max()
            < 0.2 * np.abs(b.norm_A2 - 2.0 / r ** 2).max())


def test_sphere_kahler_angle_tracks_polar_angle():
    st = sphere_patch(24, 32)
    b = build_geometry(st)
    theta = 0.6 + st.grid.axis_coords(0)
    expect = np.cos(theta)[:, None] * np.ones((1, 32))
    assert np.abs(np.abs(b.cos_alpha) - np.abs(expect)).max() < 1e-3


def test_torus_angles_exact():
    st = clifford_torus(32, 32)
    b = build_geometry(st)
    assert np.abs(b.cos_alpha).max() < 1e-13
    u = st.grid.axis_coords(0)[:, None]
    v = st.grid.axis_coords(1)[None, :]
    expect = -np.exp(1j * (u + v))
    assert np.abs(b.lag_angle_unit - expect).max() < 1e-11


def test_torus_curvatures_and_pinching_quantity():
    r = 1.0
    b = build_geometry(clifford_torus(32, 32, radius=r))
    assert np.abs(b.norm_H2 - 2.0 / r ** 2).max() < 5e-3
    assert np.abs(b.norm_A2 - 2.0 / r ** 2).max() < 5e-3
    assert np.abs(b.nabla_bar_j2 - 2.0 / r ** 2).max() < 1e-2


def test_lagrangian_graph_angle_against_determinant_formula():
    amp, n = 0.1, 32
    st = lagrangian_graph(n, n, amp)
    b = build_geometry(st)
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
    b = build_geometry(st)
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
        o = frame_oracle(st)
        frames = np.concatenate([o.tangent_frame, o.normal_frame], axis=2)
        gram = np.einsum("ijad,ijbd->ijab", frames, frames)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape),
                                   atol=1e-10)


def test_second_ff_is_symmetric_and_consistent_across_frames():
    st = clifford_torus(16, 16)
    b, o = build_geometry(st), frame_oracle(st)
    np.testing.assert_allclose(o.second_ff[..., 0, 1], o.second_ff[..., 1, 0],
                               atol=1e-12)
    # |H|^2 must equal the squared norm of the mean curvature vector.
    np.testing.assert_allclose(
        b.norm_H2, np.sum(b.mean_curvature ** 2, axis=0), atol=1e-12)
    # And the oracle's normal components must reassemble the vector.
    rebuilt = np.einsum("ija,ijad->dij", o.mean_normal, o.normal_frame)
    np.testing.assert_allclose(rebuilt, b.mean_curvature, atol=1e-12)


def test_trace_inequality_between_curvature_norms():
    for st in (clifford_torus(16, 16), sphere_patch(16, 16),
               lagrangian_graph(16, 16, 0.2)):
        b = build_geometry(st)
        assert np.all(2.0 * b.norm_A2 - b.norm_H2 > -1e-10)


def test_normal_part_annihilates_tangents():
    st = clifford_torus(16, 16)
    b, o = build_geometry(st), frame_oracle(st)
    tangent = o.tangent_frame[:, :, 0].transpose(2, 0, 1).copy()
    assert np.abs(b.project_normal(tangent)).max() < 1e-12
    h_proj = b.project_normal(b.mean_curvature.copy())
    np.testing.assert_allclose(h_proj, b.mean_curvature, atol=1e-10)


def test_laplace_and_gradient_on_unit_torus():
    st = clifford_torus(48, 48)
    b = build_geometry(st)
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
    b = build_geometry(st)
    f = st.positions[..., 2]
    assert np.abs(laplace_beltrami(f, b) + 2.0 / r ** 2 * f).max() < 5e-3


@pytest.mark.parametrize("make", [lambda: clifford_torus(32, 32),
                                  lambda: sphere_patch(24, 32)],
                         ids=["clifford_torus", "sphere_patch"])
def test_laplacian_of_the_position_is_the_mean_curvature(make):
    # Delta_Sigma F = H: the Laplacian's c^k d_k F is the tangential part
    # c^k F_k that H = w - c^k F_k subtracts, so on a surface without seam
    # shifts (each position component a periodic or clamped field) the two
    # agree up to the rounding of the derivative stencils.
    state = make()
    b = build_geometry(state)
    h = b.mean_curvature
    for a in range(4):
        lap = laplace_beltrami(np.ascontiguousarray(state.positions[..., a]),
                               b)
        assert np.abs(lap - h[a]).max() <= 1e-12 * np.abs(h).max(), a


def twisted_graph(n=32):
    """Doubly periodic graph over the complex line whose normal curvature
    K^perp takes both signs (|grad J|^2 - |A|^2 spans about +-0.45).  On the
    scenario surfaces K^perp vanishes to rounding (round spheres and circle
    products have a parallel normal field, ``symplectic_graph`` is a product
    of two planar curves, ``lagrangian_graph`` gives |K^perp| < 1e-14), so
    only this surface tests the K^perp term of |grad J|^2."""
    state = symplectic_graph(n, n, 0.1)
    u = state.grid.axis_coords(0)[:, None]
    v = state.grid.axis_coords(1)[None, :]
    state.positions[..., 1] += 0.1 * np.sin(2.0 * u - v)
    state.positions[..., 2] = 0.3 * np.sin(u) * np.cos(v)
    state.positions[..., 3] = 0.2 * np.cos(u + 2.0 * v)
    return state


def test_twisted_graph_has_normal_curvature():
    b = build_geometry(twisted_graph())
    k_perp = 0.5 * (b.norm_A2 - b.nabla_bar_j2)
    assert k_perp.min() < -0.2 and k_perp.max() > 0.2


GAUGE_SURFACES = {
    "clifford_torus": lambda: clifford_torus(32, 32),
    "complex_line": lambda: complex_line(16, 16),
    "lagrangian_graph": lambda: lagrangian_graph(32, 32, 0.1),
    "symplectic_graph": lambda: symplectic_graph(32, 32, 0.1),
    "twisted_graph": twisted_graph,
}


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(name=hs.sampled_from(sorted(GAUGE_SURFACES)),
       seed=hs.integers(0, 2 ** 32 - 1),
       order=hs.permutations(range(4)))
def test_gauge_choices_do_not_move_scalars(name, seed, order):
    # An SU(2) motion preserves omega and dz1 ^ dz2, so it leaves the
    # scalars alone; the frame oracle under any tangent rotation and normal
    # basis order gives the same scalars as the frame-free bundle.
    state = GAUGE_SURFACES[name]()
    base = build_geometry(state)
    rng = np.random.default_rng(seed)
    rotation = su2_real(rng)
    moved = state.transformed(offset=rng.uniform(-1.0, 1.0, 4),
                              rotation=rotation)
    angles = rng.uniform(0.0, 2.0 * np.pi, (state.grid.n1, state.grid.n2))
    alt = build_geometry(moved)
    oracle = frame_oracle(moved, angles, tuple(order))
    for field in ("nabla_bar_j2", "norm_A2", "norm_H2", "cos_alpha",
                  "lag_angle_unit"):
        diff = np.abs(getattr(alt, field) - getattr(base, field)).max()
        assert diff < 1e-8, field
        diff = np.abs(getattr(oracle, field) - getattr(alt, field)).max()
        assert diff < 1e-8, field
    assert np.abs(alt.mean_curvature.transpose(1, 2, 0)
                  - base.mean_curvature.transpose(1, 2, 0) @ rotation.T
                  ).max() < 1e-8
    # The pinching |grad J|^2 >= |H|^2 / 2 holds in the closed form itself.
    scale = max(1.0, float(alt.norm_H2.max()))
    assert (alt.nabla_bar_j2 - 0.5 * alt.norm_H2).min() >= -1e-12 * scale


def test_j_gradient_direct_vs_shape_expression():
    # The bundle's closed form and the 16-entry J route below carry
    # independent fourth-order stencil error; they agree to that error and
    # converge together under refinement.
    for build in (lagrangian_graph, symplectic_graph):
        diffs = []
        for n in (32, 64):
            state = build(n, n, 0.1)
            b, o = build_geometry(state), frame_oracle(state)
            direct = _reference_j(o.tangent_frame, o.normal_frame,
                                  o.tangent_coeffs, b.cos_alpha, b.grid)
            diffs.append(np.nanmax(np.abs(b.nabla_bar_j2 - direct)))
        assert diffs[0] < 1e-4
        assert diffs[0] / diffs[1] > 8.0


def test_degenerate_metric_raises():
    g = ParamGrid(8, 8, 0.1, 0.1, True, True)
    with pytest.raises(DegenerateMetric) as err:
        build_geometry(SurfaceState(g, np.zeros((8, 8, 4))))
    assert err.value.node == (0, 0)
    # The planar map (u, y) with d_v y = (u - u0)^2 + (v - v0)^2 has
    # det g = (d_v y)^2, which vanishes only at (u0, v0) = node (7, 4); the
    # clamped stencils are exact on these cubics.
    g = ParamGrid(12, 10, 0.1, 0.1, False, False)
    u = g.axis_coords(0)[:, None]
    v = g.axis_coords(1)[None, :]
    positions = np.zeros((12, 10, 4))
    positions[..., 0] = u
    positions[..., 1] = (v - v[0, 4]) ** 3 / 3.0 + (u - u[7]) ** 2 * v
    with pytest.raises(DegenerateMetric) as err:
        build_geometry(SurfaceState(g, positions))
    assert err.value.node == (7, 4)
    assert str(err.value).endswith(" at node (7, 4)")
    assert str(err.value).startswith("det g = ")
    # A metric that overflows to NaN is no immersion either.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateMetric, match="det g = nan"):
        build_geometry(clifford_torus(8, 8, radius=1e300))


def test_torus_quadrature_area_converges_at_fourth_order():
    # The area element inherits the stencil bias of the first derivatives,
    # so the quadrature error drops 16x per refinement.
    r = 0.8
    exact = 4.0 * np.pi ** 2 * r ** 2
    errs = []
    for n in (32, 64):
        b = build_geometry(clifford_torus(n, n, radius=r))
        errs.append(abs(float(np.sum(b.quadrature_weights())) - exact))
    assert errs[0] / exact < 2e-4
    assert errs[0] / errs[1] > 12.0


# Frame oracle: the frame route and tensor contractions that the frame-free
# bundle replaced.

PROJECTION_FLOOR = 1e-6      # usable normal projection of an ambient axis


def cross4(a, b, c):
    """Vector d with d . x = det(rows a, b, c, x); orthogonal to a, b, c."""

    def det3(p, q, r):
        return (a[..., p] * (b[..., q] * c[..., r] - b[..., r] * c[..., q])
                - a[..., q] * (b[..., p] * c[..., r] - b[..., r] * c[..., p])
                + a[..., r] * (b[..., p] * c[..., q] - b[..., q] * c[..., p]))

    return np.stack([-det3(1, 2, 3), det3(0, 2, 3),
                     -det3(0, 1, 3), det3(0, 1, 2)], axis=-1)


def _tangent_frame(f_u, f_v, metric, rotation=None):
    """Oriented orthonormal tangent frame by Gram-Schmidt on (F_u, F_v),
    turned by per-node ``rotation`` angles, and its coefficients C with
    e_a = C[a, i] F_i."""
    g11 = metric[..., 0, 0]
    g12 = metric[..., 0, 1]
    mu = np.sqrt(np.linalg.det(metric) / g11)
    c = np.zeros(metric.shape)
    c[..., 0, 0] = 1.0 / np.sqrt(g11)
    c[..., 1, 0] = -g12 / (g11 * mu)
    c[..., 1, 1] = 1.0 / mu
    if rotation is not None:
        turn = np.stack([np.stack([np.cos(rotation), np.sin(rotation)], -1),
                         np.stack([-np.sin(rotation), np.cos(rotation)], -1)],
                        axis=-2)
        c = turn @ c
    frame = np.einsum('...ai,...ic->...ac', c, np.stack([f_u, f_v], axis=-2))
    return frame, c


def _reference_normal_frame(e1, e2, basis_order):
    """First normal by the per-node 4x4 projector, rows in basis order;
    the second completes a positively oriented ambient basis."""
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


def _j_from_shape(h_frame):
    """|grad J_Sigma|^2 from h^n_ab in an orthonormal tangent frame:
    sum_k (h^1_k2 + h^2_k1)^2 + (h^2_k2 - h^1_k1)^2."""
    h = h_frame
    p1 = h[..., 0, 0, 1] + h[..., 1, 0, 0]
    q1 = h[..., 1, 0, 1] - h[..., 0, 0, 0]
    p2 = h[..., 0, 1, 1] + h[..., 1, 1, 0]
    q2 = h[..., 1, 1, 1] - h[..., 0, 1, 0]
    return p1 * p1 + q1 * q1 + p2 * p2 + q2 * q2


def _reference_j(frame_t, frame_n, coeffs, cos_alpha, grid):
    """|grad J|^2 = 1/4 sum_k ||D_k J||_F^2 from all 16 entries of the J
    field; NaN where sin^2(alpha) < 1e-6, where the frame-derived J loses
    accuracy."""
    e1, e2 = frame_t[..., 0, :], frame_t[..., 1, :]
    v1, v2 = frame_n[..., 0, :], frame_n[..., 1, :]

    def skew(a, b):
        return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]

    j_field = skew(e2, e1) + skew(v2, v1)
    j_v = scalar_derivative(j_field.transpose(2, 3, 0, 1), grid, 1, 1)
    dj = np.stack([scalar_derivative(j_field, grid, 0, 1),
                   j_v.transpose(2, 3, 0, 1)], axis=-3)
    frame_dj = np.einsum('...ki,...iab->...kab', coeffs, dj)
    value = 0.25 * np.einsum('...kab,...kab->...', frame_dj, frame_dj)
    return np.where(1.0 - cos_alpha ** 2 < 1e-6, np.nan, value)


def frame_oracle(state, tangent_rotation=None,
                 normal_basis_order=(0, 1, 2, 3)):
    """Geometry of ``state`` through orthonormal frames and einsum
    contractions: h^n_ij = <F_ij, v_n>, its frame components, and every
    scalar the bundle gives frame-free."""
    f_u, f_v, f_uu, f_uv, f_vv = (d.transpose(1, 2, 0)
                                  for d in position_derivatives(state))
    first = np.stack([f_u, f_v], axis=-2)
    metric = np.einsum('...ic,...jc->...ij', first, first)
    inverse = np.linalg.inv(metric)
    hess = np.stack([np.stack([f_uu, f_uv], axis=-2),
                     np.stack([f_uv, f_vv], axis=-2)], axis=-3)
    proj_t = np.einsum('...ija,...la->...ijl', hess, first)
    christoffel = np.einsum('...kl,...ijl->...kij', inverse, proj_t)
    frame_t, coeffs = _tangent_frame(f_u, f_v, metric, tangent_rotation)
    frame_n = _reference_normal_frame(frame_t[..., 0, :], frame_t[..., 1, :],
                                      normal_basis_order)
    h = np.einsum('...ijc,...nc->...nij', hess, frame_n)
    h_frame = np.einsum('...ai,...bj,...nij->...nab', coeffs, coeffs, h)
    mean_normal = np.einsum('...ij,...nij->...n', inverse, h)
    h_dot_a = np.einsum('...n,...nab->...ab', mean_normal, h_frame)
    cos_alpha, cos_theta, sin_theta, _, _ = plane_angles(
        frame_t[..., 0, :].transpose(2, 0, 1),
        frame_t[..., 1, :].transpose(2, 0, 1), 1.0)
    det_g = np.linalg.det(metric)
    return SimpleNamespace(
        grid=state.grid, inverse=inverse, det_g=det_g,
        area_element=np.sqrt(det_g), christoffel=christoffel,
        contracted_gamma=np.einsum('...ij,...kij->k...', inverse, christoffel),
        tangent_frame=frame_t, tangent_coeffs=coeffs, normal_frame=frame_n,
        second_ff=h, second_ff_frame=h_frame, mean_normal=mean_normal,
        mean_curvature=np.einsum('...n,...nc->c...', mean_normal, frame_n),
        norm_A2=np.einsum('...nab,...nab->...', h_frame, h_frame),
        norm_H2=np.sum(mean_normal ** 2, axis=-1),
        cos_alpha=cos_alpha, lag_angle_unit=cos_theta + 1j * sin_theta,
        nabla_bar_j2=_j_from_shape(h_frame),
        h_dot_a2=np.einsum('...ab,...ab->...', h_dot_a, h_dot_a))


def _reference_operators(f, g, x, o):
    """Frame and einsum forms of the field operators on scalars f, g and a
    component-major 4-vector field x, from the frame oracle ``o``."""
    grid = o.grid
    x = x.transpose(1, 2, 0)
    f_u = scalar_derivative(f, grid, 0, 1)
    f_v = scalar_derivative(f, grid, 1, 1)
    f_uv = scalar_derivative(f_u, grid, 1, 1)
    grad = np.stack([f_u, f_v], axis=-1)
    grad_g = np.stack([scalar_derivative(g, grid, 0, 1),
                       scalar_derivative(g, grid, 1, 1)], axis=-1)
    hess = np.stack([np.stack([scalar_derivative(f, grid, 0, 2), f_uv], -1),
                     np.stack([f_uv, scalar_derivative(f, grid, 1, 2)], -1)],
                    axis=-2)
    correction = np.einsum('...kij,...k->...ij', o.christoffel, grad)
    x_v = scalar_derivative(x.transpose(2, 0, 1), grid, 1, 1)
    coord = np.stack([scalar_derivative(x, grid, 0, 1),
                      x_v.transpose(1, 2, 0)], axis=-2)
    deriv = np.einsum('...ki,...ic->...kc', o.tangent_coeffs, coord)
    comps = np.einsum('...nc,...kc->...kn', o.normal_frame, deriv)
    normal = np.einsum('...nc,...c->...n', o.normal_frame, x)
    return {
        "laplace_beltrami": np.einsum('...ij,...ij->...', o.inverse,
                                      hess - correction),
        "gradient_sq": np.einsum('...ij,...i,...j->...', o.inverse,
                                 grad, grad),
        "gradient_inner": np.einsum('...ij,...i,...j->...', o.inverse,
                                    grad, grad_g),
        "normal_part": np.einsum('...n,...nc->c...', normal, o.normal_frame),
        "normal_gradient_sq": np.einsum('...kn,...kn->...', comps, comps),
    }


ORACLE_SURFACES = {
    "clifford_torus": lambda: clifford_torus(32, 32),
    "lagrangian_graph": lambda: lagrangian_graph(32, 32, 0.1),
    "symplectic_graph": lambda: symplectic_graph(32, 32, 0.1),
    "twisted_graph": twisted_graph,
}

# Bundle fields compared with the oracle's fields of the same name.
BUNDLE_FIELDS = ("det_g", "area_element", "mean_curvature", "norm_A2",
                 "norm_H2", "cos_alpha", "lag_angle_unit", "nabla_bar_j2",
                 "h_dot_a2")


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
    got = build_geometry(state)
    expect = frame_oracle(state, rotation, tuple(order))
    assert got.grid is expect.grid
    for field in BUNDLE_FIELDS:
        _assert_field_close(getattr(got, field), getattr(expect, field), field)
    # c^k = g^ij Gamma^k_ij.
    _assert_field_close(np.stack(got.contracted_gamma),
                        expect.contracted_gamma, "contracted_gamma")
    # Generic fields: two scalars and a vector field with tangential part.
    f = got.cos_alpha + got.positions[..., 0]
    g = got.positions[..., 1] * got.positions[..., 2]
    x = got.mean_curvature + got.f_u
    ops = {"laplace_beltrami": laplace_beltrami(f, got),
           "gradient_sq": gradient_sq(f, got),
           "gradient_inner": gradient_inner(f, g, got),
           "normal_part": got.project_normal(x.copy()),
           "normal_gradient_sq": normal_gradient_sq(x, got)}
    ref = _reference_operators(f, g, x, expect)
    for key, value in ops.items():
        _assert_field_close(value, ref[key], key)


# Layout equivalence: the component-major kernel against the node-major,
# (n1, n2, 4), computation it replaced.  Derivatives come from explicit
# products with the derivative matrices; the bundle algebra is the kernel's
# own closed form written on [..., c] component views.

def _node_major_derivative(x, grid, axis, order):
    """d_u (axis 0) or d_v (axis 1) of a node-major (n1, n2, ...) field, and
    per entry the sum of the magnitudes of the terms it adds up, the scale
    of its rounding error."""
    if axis == 0:
        d = derivative_matrix(grid.n1, grid.spacing1, grid.periodic1, order)
        return (np.tensordot(d, x, axes=(1, 0)),
                np.tensordot(np.abs(d), np.abs(x), axes=(1, 0)))
    d = derivative_matrix(grid.n2, grid.spacing2, grid.periodic2, order)
    return (np.moveaxis(np.tensordot(d, x, axes=(1, 1)), 0, 1),
            np.moveaxis(np.tensordot(np.abs(d), np.abs(x), axes=(1, 1)), 0, 1))


def _node_dot(a, b):
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


def _node_major_bundle(derivs, f, x, grid):
    """Bundle fields and field operators from node-major derivatives, for a
    scalar field f and a node-major vector field x."""
    f_u, f_v, f_uu, f_uv, f_vv = derivs
    g11, g12, g22 = _node_dot(f_u, f_u), _node_dot(f_u, f_v), _node_dot(f_v, f_v)
    det = g11 * g22 - g12 * g12
    p, q, r = g22 / det, -g12 / det, g11 / det

    def coords(y):
        yu, yv = _node_dot(y, f_u), _node_dot(y, f_v)
        return p * yu + q * yv, q * yu + r * yv

    def normal(y):
        cu, cv = coords(y)
        return y - cu[..., None] * f_u - cv[..., None] * f_v

    def trace2(pair, x11, x12, x22):
        return (p * p * pair(x11, x11) + r * r * pair(x22, x22)
                + 2.0 * q * q * pair(x11, x22)
                + 4.0 * q * (p * pair(x11, x12) + r * pair(x12, x22))
                + 2.0 * (p * r + q * q) * pair(x12, x12))

    def wedge(a, b):
        return [a[..., i] * b[..., j] - a[..., j] * b[..., i]
                for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]

    def det4(y, z):
        w = wedge(f_u, f_v)
        return sum(d * e for d, e in zip((w[5], -w[4], w[3], w[2], -w[1], w[0]),
                                         wedge(y, z)))

    w = p[..., None] * f_uu + (2.0 * q)[..., None] * f_uv + r[..., None] * f_vv
    h = normal(w)
    c_u, c_v = coords(w)
    a = [normal(y) for y in (f_uu, f_uv, f_vv)]
    norm_a2 = trace2(_node_dot, *a)
    area = np.sqrt(det)
    omega = (f_u[..., 0] * f_v[..., 1] - f_u[..., 1] * f_v[..., 0]
             + f_u[..., 2] * f_v[..., 3] - f_u[..., 3] * f_v[..., 2])
    z_u = f_u[..., 0::2] + 1j * f_u[..., 1::2]
    z_v = f_v[..., 0::2] + 1j * f_v[..., 1::2]
    hol = (z_u[..., 0] * z_v[..., 1] - z_v[..., 0] * z_u[..., 1]) / area
    k_perp = (p * det4(a[0], a[1]) + q * det4(a[0], a[2])
              + r * det4(a[1], a[2])) / det
    # Scalar f: (n1, n2) is both layouts, so its derivatives are the kernel's.
    s_u, s_v = (scalar_derivative(f, grid, axis, 1) for axis in (0, 1))
    s_uv = scalar_derivative(s_u, grid, 1, 1)
    s_uu, s_vv = (scalar_derivative(f, grid, axis, 2) for axis in (0, 1))
    n_u = normal(_node_major_derivative(x, grid, 0, 1)[0])
    n_v = normal(_node_major_derivative(x, grid, 1, 1)[0])
    return {
        "mean_curvature": h, "det_g": det, "norm_H2": _node_dot(h, h),
        "norm_A2": norm_a2,
        "cos_alpha": np.clip(omega / area, -1.0, 1.0),
        "lag_angle_unit": hol / np.abs(hol),
        "contracted_gamma": np.stack([c_u, c_v]),
        "nabla_bar_j2": norm_a2 - 2.0 * k_perp,
        "h_dot_a2": trace2(np.multiply, *(_node_dot(h, y) for y in a)),
        "laplace_beltrami": (p * s_uu + 2.0 * q * s_uv + r * s_vv
                             - c_u * s_u - c_v * s_v),
        "gradient_sq": p * s_u * s_u + 2.0 * q * s_u * s_v + r * s_v * s_v,
        "normal_gradient_sq": (p * _node_dot(n_u, n_u)
                               + 2.0 * q * _node_dot(n_u, n_v)
                               + r * _node_dot(n_v, n_v)),
    }


@hs.composite
def layout_surfaces(draw):
    """A smooth immersion of unit scale on an 8-40 node grid per axis, or
    on 257 x 8: per axis periodic or clamped, and on a periodic axis with or
    without a seam shift, then turned by a random orthogonal map."""
    n1, n2 = draw(hs.integers(8, 40)), draw(hs.integers(8, 40))
    if draw(hs.integers(0, 4)) == 4:
        n1, n2 = 257, 8
    periodic = draw(hs.tuples(hs.booleans(), hs.booleans()))
    seam = draw(hs.tuples(hs.booleans(), hs.booleans()))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    state = _wavy_surface(n1, n2, periodic, seam, rng)
    return state.transformed(
        rotation=np.linalg.qr(rng.standard_normal((4, 4)))[0])


def _wavy_surface(n1, n2, periodic, seam, rng):
    """A smooth immersion of unit scale: per axis round a circle (an arc on
    a clamped axis) or, on a periodic axis with ``seam``, along a line with
    a seam shift, plus a few random low Fourier modes."""
    grid = ParamGrid(n1, n2, 2.0 * np.pi / n1, 2.0 * np.pi / n2, *periodic)
    u = grid.axis_coords(0)[:, None] * np.ones((1, n2))
    v = grid.axis_coords(1)[None, :] * np.ones((n1, 1))
    positions = np.zeros((n1, n2, 4))
    shifts = np.zeros((2, 4))
    for axis, t in enumerate((u, v)):
        # An axis with a seam moves along a line, any other axis round a
        # circle (an arc on a clamped axis).
        pair = slice(2 * axis, 2 * axis + 2)
        if seam[axis] and periodic[axis]:
            positions[..., 2 * axis] = t
            shifts[axis, 2 * axis] = 2.0 * np.pi
        else:
            positions[..., pair] = np.stack([np.cos(t), np.sin(t)], axis=-1)
    for k1 in range(3):
        for k2 in range(3):
            phase = rng.uniform(0.0, 2.0 * np.pi, 4)
            positions += rng.uniform(-0.02, 0.02, 4) * np.cos(
                k1 * u[..., None] + k2 * v[..., None] + phase)
    return SurfaceState(grid, positions, shift1=shifts[0], shift2=shifts[1])


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(state=layout_surfaces())
def test_component_major_kernel_matches_node_major_reference(state):
    grid = state.grid
    per = state.periodic_components().transpose(1, 2, 0)
    derivs = [d.transpose(1, 2, 0) for d in position_derivatives(state)]
    # Each derivative agrees with its explicit product to 1e-13 of the
    # magnitude of the terms the product sums.
    f_u, u_terms = _node_major_derivative(per, grid, 0, 1)
    f_v, v_terms = _node_major_derivative(per, grid, 1, 1)
    expect = {
        "F_u": (f_u + state.shift1 / (grid.n1 * grid.spacing1), u_terms),
        "F_v": (f_v + state.shift2 / (grid.n2 * grid.spacing2), v_terms),
        "F_uu": _node_major_derivative(per, grid, 0, 2),
        # The kernel's F_u, so that only the v-product is checked here.
        "F_uv": _node_major_derivative(scalar_derivative(per, grid, 0, 1),
                                       grid, 1, 1),
        "F_vv": _node_major_derivative(per, grid, 1, 2)}
    for got, (name, (value, terms)) in zip(derivs, expect.items()):
        assert got.shape == value.shape, name
        assert np.all(np.abs(got - value) <= 1e-13 * terms), name
    # The fields built on those derivatives, and the field operators.
    f = per[..., 0] * per[..., 1] + per[..., 2]
    x = per * per[..., :1]
    got = build_geometry(state)
    values = {
        "mean_curvature": got.mean_curvature.transpose(1, 2, 0),
        "contracted_gamma": np.stack(got.contracted_gamma),
        "laplace_beltrami": laplace_beltrami(f, got),
        "gradient_sq": gradient_sq(f, got),
        "normal_gradient_sq": normal_gradient_sq(component_major(x), got),
    }
    for name, expect in _node_major_bundle(derivs, f, x, grid).items():
        value = values[name] if name in values else getattr(got, name)
        assert value.shape == expect.shape, name
        scale = max(1.0, np.abs(expect).max())
        np.testing.assert_allclose(value, expect, rtol=1e-13,
                                   atol=1e-13 * scale, err_msg=name)


@pytest.mark.parametrize("name", ["seam_shifted_graph", "torus"])
def test_stage_view_positions_give_the_geometry_of_their_copy(name):
    # An integrator stage state keeps its positions as the node-major view
    # of a component-major array; its geometry reads that array in place
    # and is bitwise the geometry of the same positions stored C-contiguous.
    rng = np.random.default_rng(23)
    state = (lagrangian_graph(24, 24, 0.1).transformed(rotation=su2_real(rng))
             if name == "seam_shifted_graph" else clifford_torus(24, 24))
    y = component_major(state.positions)
    view = SurfaceState(state.grid, y.transpose(1, 2, 0), state.time,
                        state.shift1, state.shift2)
    stored = SurfaceState(state.grid, y.transpose(1, 2, 0).copy(),
                          state.time, state.shift1, state.shift2)
    assert not view.positions.flags.c_contiguous
    assert stored.positions.flags.c_contiguous
    assert np.shares_memory(view.periodic_components(), y) == (
        name == "torus")
    got, want = build_geometry(view), build_geometry(stored)
    for field in ("mean_curvature", "g11", "g12", "g22", "det_g", "norm_A2",
                  "cos_alpha", "cos_theta"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), \
            field


# Bitwise guard of the angle kernel: the six-component wedge computation
# that plane_angles replaced, kept here as its reference.

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _wedge_plane_angles(a, b, area):
    """plane_angles on all six components p_ij of a ^ b, out of place."""
    p = [a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS]
    cos_alpha = (p[0] + p[5]) / area
    excess = np.abs(cos_alpha) - 1.0
    if np.any(excess > COS_CLAMP_EXCESS):
        node = np.unravel_index(np.argmax(excess > COS_CLAMP_EXCESS),
                                excess.shape)
        raise FrameInconsistent(tuple(int(i) for i in node), "reference")
    re = (p[1] - p[4]) / area
    im = (p[2] + p[3]) / area
    omega_norm = np.sqrt(re * re + im * im)
    degenerate = omega_norm < OMEGA_NORM_FLOOR
    norm = np.where(degenerate, 1.0, omega_norm)
    return (np.clip(cos_alpha, -1.0, 1.0), np.where(degenerate, 1.0, re / norm),
            np.where(degenerate, 0.0, im / norm), omega_norm, degenerate)


ANGLE_SURFACES = {
    "clifford_torus": lambda: clifford_torus(24, 24),
    "complex_line": lambda: complex_line(16, 16),
    "lagrangian_graph": lambda: lagrangian_graph(32, 32, 0.3),
    "symplectic_graph": lambda: symplectic_graph(32, 32, 0.1),
}


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(name=hs.sampled_from(sorted(ANGLE_SURFACES)),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_three_form_angles_are_bitwise_the_six_component_wedge(name, seed):
    rng = np.random.default_rng(seed)
    state = ANGLE_SURFACES[name]().transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    b = build_geometry(state)
    got = plane_angles(b.f_u, b.f_v, b.area_element)
    expect = _wedge_plane_angles(b.f_u, b.f_v, b.area_element)
    # An SU(2) motion keeps the complex line holomorphic, Omega = 0.
    assert got[4].all() == (name == "complex_line")
    for k, (x, y) in enumerate(zip(got, expect)):
        assert x.dtype == y.dtype and x.shape == y.shape, k
        assert x.tobytes() == y.tobytes(), k
    assert b.cos_alpha.tobytes() == expect[0].tobytes()
    assert b.lag_angle_unit.tobytes() == (expect[1]
                                          + 1j * expect[2]).tobytes()


def test_angle_kernel_raises_at_the_same_node_as_the_wedge():
    # A frame with omega(a, b) = 1 + 2e-10 at node (2, 3) overshoots the
    # clamp; 1 + 0.5e-10 there is rounding and is clipped to 1; a NaN node
    # raises in neither.
    a = np.zeros((4, 5, 6))
    b = np.zeros((4, 5, 6))
    a[0] = 1.0
    b[1] = 0.5
    b[2] = np.sqrt(0.75)
    b[1, 2, 3] = 1.0 + 2e-10
    with pytest.raises(FrameInconsistent) as err:
        plane_angles(a, b, 1.0)
    assert err.value.node == (2, 3)
    with pytest.raises(FrameInconsistent) as ref:
        _wedge_plane_angles(a, b, 1.0)
    assert ref.value.node == err.value.node
    b[1, 2, 3] = 1.0 + 0.5e-10
    b[1, 4, 0] = np.nan
    got = plane_angles(a, b, 1.0)
    expect = _wedge_plane_angles(a, b, 1.0)
    assert got[0][2, 3] == 1.0 and np.isnan(got[0][4, 0])
    for x, y in zip(got, expect):
        assert x.tobytes() == y.tobytes()


def _out_of_place_norm_a2(b):
    """GeometryBundle.norm_A2 in one out-of-place expression per sum."""
    uu, uv, vv = ((_dot(x, b.f_u), _dot(x, b.f_v)) for x in b.hessian)

    def tangential(x, y):
        return (b.inv11 * x[0] * y[0] + b.inv22 * x[1] * y[1]
                + b.inv12 * (x[0] * y[1] + x[1] * y[0]))

    f_uu, f_uv, f_vv = b.hessian
    gauss = (_dot(f_uu, f_vv) - _dot(f_uv, f_uv)
             - tangential(uu, vv) + tangential(uv, uv))
    return b.norm_H2 - (2.0 / b.det_g) * gauss


@pytest.mark.parametrize("name", sorted(ANGLE_SURFACES))
def test_in_place_norm_a2_is_bitwise_the_out_of_place_sum(name):
    rng = np.random.default_rng(len(name))
    state = ANGLE_SURFACES[name]().transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    b = build_geometry(state)
    assert b.norm_A2.tobytes() == _out_of_place_norm_a2(b).tobytes()


# Bitwise guard of the einsum contractions: the five derivative fields as
# separately allocated products and the bundle's fields by the
# multiply-reduce formulas that the einsum calls replaced, kept here as
# their reference.  Each einsum sums the component axis in order, as
# np.add.reduce(a * b, axis=0) does, on the component-major arrays the
# bundle lays out itself.

def _reduce_dot(a, b):
    return np.add.reduce(a * b, axis=0)


def _allocating_derivative(field, grid, axis, order):
    """A derivative of a component-major field as the product that
    allocates its own result, D @ X per block or X @ D.T; a banded axis
    (no dense product) through the module's own apply."""
    n, h, periodic = ((grid.n1, grid.spacing1, grid.periodic1) if axis == 0
                      else (grid.n2, grid.spacing2, grid.periodic2))
    if n >= BANDED_MIN_NODES:
        return scalar_derivative(field, grid, axis, order)
    mat = derivative_matrix(n, h, periodic, order)
    if axis == 0:
        return np.matmul(mat, field)
    return (field.reshape(-1, n) @ mat.T).reshape(field.shape)


def _separate_derivatives(state):
    """(F_u, F_v, F_uu, F_uv, F_vv) as five separate arrays, in the order
    the kernel forms them, seam slopes added last."""
    g = state.grid
    per = state.periodic_components()
    f_u = _allocating_derivative(per, g, 0, 1)
    f_uu = _allocating_derivative(per, g, 0, 2)
    f_v = _allocating_derivative(per, g, 1, 1)
    f_vv = _allocating_derivative(per, g, 1, 2)
    f_uv = _allocating_derivative(f_u, g, 1, 1)
    if state.seam1 or state.seam2:
        _, slope1, slope2 = state.seam_data()
        if slope1 is not None:
            f_u += slope1
        if slope2 is not None:
            f_v += slope2
    return f_u, f_v, f_uu, f_uv, f_vv


def _multiply_reduce_fields(derivs):
    """Every field the bundle forms by einsum, from separate derivative
    arrays, each inner product a multiply and a sum over the leading axis."""
    f_u, f_v, f_uu, f_uv, f_vv = derivs
    g11, g12, g22 = (_reduce_dot(f_u, f_u), _reduce_dot(f_u, f_v),
                     _reduce_dot(f_v, f_v))
    det = g11 * g22
    det -= g12 * g12
    inv11, inv12, inv22 = g22 / det, -g12 / det, g11 / det
    w = inv11 * f_uu
    w += (2.0 * inv12) * f_uv
    w += inv22 * f_vv
    xu, xv = _reduce_dot(w, f_u), _reduce_dot(w, f_v)
    c_u, c_v = inv11 * xu + inv12 * xv, inv12 * xu + inv22 * xv
    w -= c_u * f_u
    w -= c_v * f_v
    norm_h2 = _reduce_dot(w, w)
    uu, uv, vv = ((_reduce_dot(x, f_u), _reduce_dot(x, f_v))
                  for x in (f_uu, f_uv, f_vv))

    def tangential(x, y):
        out = inv11 * x[0]
        out *= y[0]
        term = inv22 * x[1]
        term *= y[1]
        out += term
        term = x[0] * y[1]
        term += x[1] * y[0]
        term *= inv12
        out += term
        return out

    gauss = _reduce_dot(f_uu, f_vv)
    gauss -= _reduce_dot(f_uv, f_uv)
    gauss -= tangential(uu, vv)
    gauss += tangential(uv, uv)
    gauss *= 2.0 / det
    return {"g11": g11, "g12": g12, "g22": g22, "det_g": det,
            "inv11": inv11, "inv12": inv12, "inv22": inv22,
            "c_u": c_u, "c_v": c_v, "mean_curvature": w,
            "norm_H2": norm_h2, "norm_A2": norm_h2 - gauss}


@hs.composite
def contraction_states(draw):
    """A smooth immersion on an 8-64 node grid per axis, or with one banded
    axis of 256-300 nodes, periodic or clamped per axis and seam-shifted or
    not, moved by a Haar SU(2) rotation and an offset; as a stored state or
    as an integrator stage holds it, the node-major view of its
    component-major copy."""
    n1, n2 = draw(hs.integers(8, 64)), draw(hs.integers(8, 64))
    banded = draw(hs.integers(0, 5))
    if banded == 4:
        n1, n2 = draw(hs.integers(BANDED_MIN_NODES, 300)), 8
    elif banded == 5:
        n1, n2 = 8, draw(hs.integers(BANDED_MIN_NODES, 300))
    periodic = draw(hs.tuples(hs.booleans(), hs.booleans()))
    seam = draw(hs.tuples(hs.booleans(), hs.booleans()))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    state = _wavy_surface(n1, n2, periodic, seam, rng).transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    if draw(hs.booleans()):
        stage = component_major(state.positions)
        state = state.moved(stage.transpose(1, 2, 0), state.time)
    return state


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(state=contraction_states())
def test_einsum_contractions_are_bitwise_the_multiply_reduce_formulas(state):
    derivs = position_derivatives(state)
    assert derivs.shape == (5, 4, *state.grid.shape)
    assert derivs.flags.c_contiguous
    want = _separate_derivatives(state)
    for k, (got, expect) in enumerate(zip(derivs, want)):
        assert got.tobytes() == expect.tobytes(), k
    b = build_geometry(state)
    got = {"g11": b.g11, "g12": b.g12, "g22": b.g22, "det_g": b.det_g,
           "inv11": b.inv11, "inv12": b.inv12, "inv22": b.inv22,
           "c_u": b.contracted_gamma[0], "c_v": b.contracted_gamma[1],
           "mean_curvature": b.mean_curvature, "norm_H2": b.norm_H2,
           "norm_A2": b.norm_A2}
    for name, expect in _multiply_reduce_fields(want).items():
        assert got[name].shape == expect.shape, name
        assert got[name].tobytes() == expect.tobytes(), name


def test_dot_keeps_its_bits_on_node_major_views():
    # The generic inner product stays a multiply and a reduce: on node-major
    # views, whose component axis is the fastest in memory, it still adds
    # the components left to right, where an einsum regroups the sum and
    # moves the last bit.  On component-major copies, the layout of the
    # bundle's own arrays, the einsum sum is the same.
    rng = np.random.default_rng(29)
    for shape in ((24, 24), (48, 48), (16, 33), (1025, 16)):
        a, b = (rng.standard_normal((*shape, 4)).transpose(2, 0, 1)
                for _ in range(2))
        assert not a.flags.c_contiguous
        expect = _four_term_dot(a, b)
        assert _dot(a, b).tobytes() == expect.tobytes(), shape
        assert _reduce_dot(a, b).tobytes() == expect.tobytes(), shape
        einsum = np.einsum("kij,kij->ij", component_major(
            a.transpose(1, 2, 0)), component_major(b.transpose(1, 2, 0)))
        assert einsum.tobytes() == expect.tobytes(), shape


FINITENESS_STATES = {
    "dense_unshifted": lambda: clifford_torus(16, 12),
    "dense_shifted": lambda: lagrangian_graph(16, 12, 0.1),
    "banded_unshifted": lambda: clifford_torus(BANDED_MIN_NODES, 8),
    "banded_shifted": lambda: symplectic_graph(8, BANDED_MIN_NODES, 0.1),
}


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(name=hs.sampled_from(sorted(FINITENESS_STATES)),
       value=hs.sampled_from([np.nan, np.inf, -np.inf]),
       count=hs.integers(1, 3), stage=hs.booleans(),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_non_finite_positions_raise_at_the_first_bad_node(name, value, count,
                                                          stage, seed):
    # The positions are checked only once det g fails, which any
    # non-finite position makes happen; the error names the first bad node
    # in row-major order, as the check on the positions alone does, and no
    # floating-point warning is raised on the way.
    rng = np.random.default_rng(seed)
    state = FINITENESS_STATES[name]().transformed(
        offset=rng.uniform(-1.0, 1.0, 4), rotation=su2_real(rng))
    positions = state.positions.copy()
    n1, n2 = state.grid.shape
    for _ in range(count):
        positions[rng.integers(n1), rng.integers(n2), rng.integers(4)] = value
    bad = SurfaceState(state.grid, positions, state.time, state.shift1,
                       state.shift2)
    if stage:
        bad = bad.moved(component_major(positions).transpose(1, 2, 0),
                        bad.time)
    rows, cols = np.nonzero(~np.isfinite(positions).all(axis=2))
    expect = (int(rows[0]), int(cols[0]))
    with pytest.raises(NonFinite) as ref:
        bad.require_finite()
    assert ref.value.node == expect
    with pytest.raises(NonFinite) as err:
        build_geometry(bad)
    assert err.value.node == expect
    assert str(err.value) == str(ref.value)


def test_overflowing_metric_raises_without_a_warning():
    # Finite positions whose metric overflows: det g is inf or NaN, the
    # error is DegenerateMetric at the first node, and no floating-point
    # warning is raised (warnings are errors under this suite).
    for state in (clifford_torus(8, 8, radius=1e300),
                  lagrangian_graph(8, 8).transformed(scale=1e300),
                  clifford_torus(BANDED_MIN_NODES, 8).transformed(
                      scale=1e300)):
        with pytest.raises(DegenerateMetric, match="det g = (nan|inf)"):
            build_geometry(state)


def _held_arrays(obj):
    """Every array a bundle field holds, entries of tuple fields too."""
    for value in vars(obj).values():
        for a in (value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray):
                yield a


def test_bundle_holds_each_field_once():
    # Bytes over the distinct arrays behind the bundle's fields: the five
    # derivative fields share one stack and the seven metric fields one
    # (7, n1, n2) array, and neither holds a spare slot, so the bundle
    # holds one node's worth per scalar field, as with one array per field:
    # 20 for the derivatives, 7 for the metric, 4 for H and 2 for c^u and
    # c^v; every lazy field then adds its own.
    b = build_geometry(lagrangian_graph(16, 20, 0.1))
    node_bytes = 8 * b.grid.n1 * b.grid.n2

    def held():
        bases = {}
        for a in _held_arrays(b):
            if a is not b.positions:
                base = a if a.base is None else a.base
                bases[id(base)] = base.nbytes
        return sum(bases.values())

    assert held() == 33 * node_bytes
    assert b.f_u.base.shape == (5, 4, 16, 20)
    assert b.g11.base is b.inv22.base
    lazy = {"norm_H2": 1, "norm_A2": 1, "area_element": 1, "_angles": 3,
            "lag_angle_unit": 2, "nabla_bar_j2": 1, "h_dot_a2": 1}
    for name, count in lazy.items():
        before = held()
        getattr(b, name)
        assert held() - before == count * node_bytes, name


def test_lazy_fields_take_no_lock(monkeypatch):
    # functools.cached_property takes its lock on every first read under
    # Python 3.11; the geometry's lazy fields compute without one.
    class Untouchable:
        def __enter__(self):
            raise AssertionError("lock taken")

        def __exit__(self, *exc):
            return False

    lazy = {name: attr for cls in (GeometryBundle, ScaledBundle)
            for name, attr in vars(cls).items()
            if isinstance(attr, cached_property)}
    assert {"norm_A2", "norm_H2", "positions"} <= set(lazy)
    for attr in lazy.values():
        monkeypatch.setattr(attr, "lock", Untouchable(), raising=False)
    state = clifford_torus(16, 16)
    b = build_geometry(state)
    view = ScaledBundle(
        b, MappedStates([state], [0], [2.0], np.zeros((1, 4)), [0.0]), 0)
    for name in lazy:
        owner = view if name == "positions" else b
        value = getattr(owner, name)
        assert vars(owner)[name] is value
        assert getattr(owner, name) is value
