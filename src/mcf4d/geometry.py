"""Discrete differential geometry of immersed surfaces in R^4 = C^2.

Everything is computed per grid node with 4th-order stencils: induced metric,
orthonormal tangent/normal frames, second fundamental form, mean curvature,
the Kahler angle cos(alpha) = omega(e1, e2), the Lagrangian angle as a unit
complex number, and the squared gradient |grad J|^2 of the compatible complex
structure J_Sigma (90-degree rotation of tangent and normal planes), in its
closed form in the second fundamental form.

Frame conventions.  e1, e2 come from Gram-Schmidt on (F_u, F_v); v1 is the
first ambient basis vector with a usable normal projection; v2 completes
{e1, e2, v1, v2} to a positively oriented ambient basis.  All scalar outputs
are invariant under any other (orientation-preserving) frame choice.

Curvature without frames.  :class:`Curvature` turns the position derivatives
into g, g^-1, A_ij, H, |A|^2 and |H|^2 by 2x2 algebra and ambient dot
products; the flow integrator and its per-step diagnostics use it alone, and
:func:`build_geometry` takes its curvature fields from it.
The bundle and the field operators are built the same way, per node, with no
generic tensor contraction: h^n_ij = <A_ij, v_n>, the frame components
C h C^T written out for the pairs a <= b, and |grad J|^2 as a sum of squares
of those components, which no frame derivative enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFrame, DegenerateMetric, FrameInconsistent
from .grid import ParamGrid, SurfaceState, position_derivatives, scalar_derivative

# Numerical floors, referenced by tests.
DET_G_FLOOR = 1e-12          # immersion requirement: det g above this
PROJECTION_FLOOR = 1e-6      # Gram-Schmidt fallback threshold
COS_CLAMP_EXCESS = 1e-10     # tolerated overshoot of |cos alpha| past 1
OMEGA_NORM_FLOOR = 1e-12     # below this the holomorphic form is degenerate


def omega_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard symplectic form dx1^dy1 + dx2^dy2 on two 4-vector fields."""
    return (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            + a[..., 2] * b[..., 3] - a[..., 3] * b[..., 2])


def holomorphic_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex form dz1^dz2 on two 4-vector fields (complex-valued)."""
    za1 = a[..., 0] + 1j * a[..., 1]
    za2 = a[..., 2] + 1j * a[..., 3]
    zb1 = b[..., 0] + 1j * b[..., 1]
    zb2 = b[..., 2] + 1j * b[..., 3]
    return za1 * zb2 - zb1 * za2


def cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector d with d . x = det(rows a, b, c, x); orthogonal to a, b, c."""

    def det3(p, q, r):
        return (a[..., p] * (b[..., q] * c[..., r] - b[..., r] * c[..., q])
                - a[..., q] * (b[..., p] * c[..., r] - b[..., r] * c[..., p])
                + a[..., r] * (b[..., p] * c[..., q] - b[..., q] * c[..., p]))

    return np.stack([-det3(1, 2, 3), det3(0, 2, 3),
                     -det3(0, 1, 3), det3(0, 1, 2)], axis=-1)


@dataclass
class GeometryBundle:
    """Per-node geometric data of one surface state.

    Index conventions: metric-type arrays end in (i, j) parameter indices;
    ``second_ff[..., n, i, j]`` is h^n_ij with n the normal index; frames are
    stored as (..., frame_index, ambient_component).
    """

    grid: ParamGrid
    positions: np.ndarray        # (n1, n2, 4)
    first_derivs: np.ndarray     # (n1, n2, 2, 4)   rows F_u, F_v
    metric: np.ndarray           # (n1, n2, 2, 2)
    inverse_metric: np.ndarray   # (n1, n2, 2, 2)
    det_g: np.ndarray            # (n1, n2)
    area_element: np.ndarray     # (n1, n2)
    christoffel: np.ndarray      # (n1, n2, 2, 2, 2)  [k, i, j]
    tangent_frame: np.ndarray    # (n1, n2, 2, 4)
    tangent_coeffs: np.ndarray   # (n1, n2, 2, 2)   e_a = C[a, i] F_i
    normal_frame: np.ndarray     # (n1, n2, 2, 4)
    second_ff: np.ndarray        # (n1, n2, 2, 2, 2)
    second_ff_frame: np.ndarray  # (n1, n2, 2, 2, 2)  orthonormal tangent basis
    mean_curvature: np.ndarray   # (n1, n2, 4)
    mean_normal: np.ndarray      # (n1, n2, 2)       H^n components
    norm_A2: np.ndarray          # (n1, n2)
    norm_H2: np.ndarray          # (n1, n2)
    cos_alpha: np.ndarray        # (n1, n2)
    lag_angle_unit: np.ndarray   # (n1, n2) complex, |.| = 1
    lag_omega_norm: np.ndarray   # (n1, n2)  |Omega(e1, e2)| = sin alpha
    omega_degenerate: np.ndarray  # (n1, n2) bool
    nabla_bar_j2: np.ndarray     # (n1, n2)  |grad J_Sigma|^2

    @property
    def cos_theta(self) -> np.ndarray:
        """Cosine of the Lagrangian angle (meaningful on Lagrangian surfaces)."""
        return self.lag_angle_unit.real

    def quadrature_weights(self) -> np.ndarray:
        """Per-node surface measure: area element times parameter cell."""
        return self.area_element * self.grid.node_weight()


def _tangent_frame(f_u, f_v, metric, det_g, rotation=None):
    """Oriented orthonormal tangent frame and its coefficients in (F_u, F_v)."""
    g11 = metric[..., 0, 0]
    g12 = metric[..., 0, 1]
    sqrt_g11 = np.sqrt(g11)
    e1 = f_u / sqrt_g11[..., None]
    mu = np.sqrt(det_g / g11)
    e2 = (f_v - (g12 / g11)[..., None] * f_u) / mu[..., None]
    c = np.zeros(metric.shape)
    c[..., 0, 0] = 1.0 / sqrt_g11
    c[..., 1, 0] = -g12 / (g11 * mu)
    c[..., 1, 1] = 1.0 / mu
    if rotation is not None:
        cos_b = np.cos(rotation)
        sin_b = np.sin(rotation)
        e1, e2 = (cos_b[..., None] * e1 + sin_b[..., None] * e2,
                  -sin_b[..., None] * e1 + cos_b[..., None] * e2)
        c0 = cos_b[..., None] * c[..., 0, :] + sin_b[..., None] * c[..., 1, :]
        c1 = -sin_b[..., None] * c[..., 0, :] + cos_b[..., None] * c[..., 1, :]
        c = np.stack([c0, c1], axis=-2)
    return np.stack([e1, e2], axis=-2), c


def _normal_frame(e1, e2, basis_order):
    """First normal vector by deterministic Gram-Schmidt with fallback.

    Per node, v1 is the normal projection e_b - e1[b] e1 - e2[b] e2 of the
    first ambient basis vector b in ``basis_order`` whose projection has norm
    at least PROJECTION_FLOOR; v2 = cross4(e1, e2, v1), normalized.
    """
    v1, norm = np.zeros(e1.shape), np.ones(e1.shape[:-1])
    missing = np.ones(e1.shape[:-1], dtype=bool)
    for b in basis_order:
        cand = -e1[..., b, None] * e1 - e2[..., b, None] * e2
        cand[..., b] += 1.0
        cand_norm = np.sqrt(_dot(cand, cand))
        take = missing & (cand_norm >= PROJECTION_FLOOR)
        v1 = np.where(take[..., None], cand, v1)
        norm = np.where(take, cand_norm, norm)
        missing &= ~take
        if not missing.any():
            break
    if missing.any():
        raise DegenerateFrame(int(np.argmax(missing)),
                              "no usable normal projection")
    v1 = v1 / norm[..., None]
    v2 = cross4(e1, e2, v1)
    v2 = v2 / np.sqrt(_dot(v2, v2))[..., None]
    return np.stack([v1, v2], axis=-2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ambient inner product of two 4-vector fields."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


class Curvature:
    """Frame-free curvature of an immersion from its position derivatives.

    The one curvature kernel of the package: the flow's stage velocities, its
    per-step diagnostics and :func:`build_geometry` all read H and |A|^2 from
    here.  From (F_u, F_v, F_uu, F_uv, F_vv) it forms g, det g and g^-1 by
    explicit 2x2 algebra, and normal parts as x - g^ij <x, F_j> F_i, using
    ambient dot products only (no frame, no Christoffel tensor).  The mean
    curvature vector H = g^ij A_ij is computed on construction; the normal
    parts A_ij of F_ij, |A|^2 = g^ik g^jl <A_ij, A_kl> and |H|^2 on first
    use, so an RK4 stage, which needs only H, pays for nothing else.

    Raises DegenerateMetric when det g falls below the immersion floor.
    """

    def __init__(self, f_u, f_v, f_uu, f_uv, f_vv):
        g11 = _dot(f_u, f_u)
        g12 = _dot(f_u, f_v)
        g22 = _dot(f_v, f_v)
        det = g11 * g22 - g12 * g12
        if np.any(det <= DET_G_FLOOR):
            node = int(np.argmax(det <= DET_G_FLOOR))
            raise DegenerateMetric(node, f"det g = {det.flat[node]:.3e}")
        self.f_u, self.f_v = f_u, f_v
        self.hessian = (f_uu, f_uv, f_vv)
        self.g11, self.g12, self.g22, self.det_g = g11, g12, g22, det
        self.inv11 = g22 / det
        self.inv12 = -g12 / det
        self.inv22 = g11 / det
        w = (self.inv11[..., None] * f_uu + (2.0 * self.inv12)[..., None] * f_uv
             + self.inv22[..., None] * f_vv)
        self.mean_curvature = self.normal_part(w)

    def tangent_coords(self, x: np.ndarray) -> tuple:
        """Coefficients (c^u, c^v) = g^ij <x, F_j> of the tangential part
        c^u F_u + c^v F_v of a vector field x."""
        xu = _dot(x, self.f_u)
        xv = _dot(x, self.f_v)
        return (self.inv11 * xu + self.inv12 * xv,
                self.inv12 * xu + self.inv22 * xv)

    def normal_part(self, x: np.ndarray) -> np.ndarray:
        """Vector field x minus its tangential projection g^ij <x, F_j> F_i."""
        cu, cv = self.tangent_coords(x)
        return x - cu[..., None] * self.f_u - cv[..., None] * self.f_v

    @cached_property
    def normal_hessian(self) -> tuple:
        """(A_11, A_12, A_22): normal parts of F_uu, F_uv, F_vv."""
        return tuple(self.normal_part(np.stack(self.hessian)))

    @cached_property
    def norm_A2(self) -> np.ndarray:
        a11, a12, a22 = self.normal_hessian
        p, q, r = self.inv11, self.inv12, self.inv22
        return (p * p * _dot(a11, a11) + r * r * _dot(a22, a22)
                + 2.0 * q * q * _dot(a11, a22)
                + 4.0 * q * (p * _dot(a11, a12) + r * _dot(a12, a22))
                + 2.0 * (p * r + q * q) * _dot(a12, a12))

    @cached_property
    def norm_H2(self) -> np.ndarray:
        return _dot(self.mean_curvature, self.mean_curvature)

    @property
    def metric(self) -> np.ndarray:
        """g as a (..., 2, 2) array."""
        return _symmetric(self.g11, self.g12, self.g22, axis=-1)

    @property
    def inverse(self) -> np.ndarray:
        """g^-1 as a (..., 2, 2) array."""
        return _symmetric(self.inv11, self.inv12, self.inv22, axis=-1)


def _symmetric(a11, a12, a22, axis):
    """Symmetric 2x2 array of per-node entries, index pair inserted at axis."""
    k = a11.ndim + 1 + axis
    out = np.empty(a11.shape[:k] + (2, 2) + a11.shape[k:])
    pair = (slice(None),) * k
    out[pair + (0, 0)] = a11
    out[pair + (0, 1)] = out[pair + (1, 0)] = a12
    out[pair + (1, 1)] = a22
    return out


def plane_angles(a: np.ndarray, b: np.ndarray, area):
    """Kahler and Lagrangian angle data of the oriented plane of a ^ b.

    ``area`` is |a ^ b| per node: 1 for an orthonormal frame (e1, e2), and
    sqrt(det g) for (F_u, F_v), since e1 ^ e2 = F_u ^ F_v / sqrt(det g).
    Returns cos(alpha) = omega(e1, e2) clipped to [-1, 1], the unit
    e^{i theta} = Omega(e1, e2) / |Omega(e1, e2)| (1 where that norm is below
    OMEGA_NORM_FLOOR), the norm itself and the mask of those nodes.

    Raises FrameInconsistent when |cos alpha| exceeds 1 beyond rounding.
    """
    cos_alpha = omega_pairing(a, b) / area
    excess = np.abs(cos_alpha) - 1.0
    if np.any(excess > COS_CLAMP_EXCESS):
        node = int(np.argmax(excess > COS_CLAMP_EXCESS))
        raise FrameInconsistent(node, f"|cos alpha| = {1 + excess.flat[node]:.12f}")
    omega_c = holomorphic_pairing(a, b) / area
    omega_norm = np.abs(omega_c)
    degenerate = omega_norm < OMEGA_NORM_FLOOR
    unit = np.where(degenerate, 1.0 + 0.0j, omega_c / np.where(degenerate, 1.0, omega_norm))
    return np.clip(cos_alpha, -1.0, 1.0), unit, omega_norm, degenerate


def build_geometry(state: SurfaceState, tangent_rotation=None,
                   normal_basis_order=(0, 1, 2, 3)) -> GeometryBundle:
    """Full geometric bundle of a surface state.

    ``tangent_rotation`` (per-node angles) and ``normal_basis_order`` change
    internal frame gauges; every scalar output is independent of them.
    The metric, A_ij, H, |A|^2 and |H|^2 come from :class:`Curvature`.

    Raises DegenerateMetric when det g falls below the immersion floor and
    FrameInconsistent when |omega(e1, e2)| exceeds 1 beyond rounding.
    """
    state.require_finite()
    grid = state.grid
    f_u, f_v, f_uu, f_uv, f_vv = position_derivatives(state)
    curv = Curvature(f_u, f_v, f_uu, f_uv, f_vv)
    first = np.stack([f_u, f_v], axis=-2)
    metric = curv.metric
    det_g = curv.det_g
    inverse = curv.inverse

    # In flat ambient space Gamma^k_ij = g^kl <F_ij, F_l>, the tangential
    # coefficients of the Hessian.
    gammas = curv.tangent_coords(np.stack([f_uu, f_uv, f_vv]))
    christoffel = np.stack([_symmetric(*g, axis=-1) for g in gammas], axis=-3)

    frame_t, coeffs = _tangent_frame(f_u, f_v, metric, det_g, tangent_rotation)
    frame_n = _normal_frame(frame_t[..., 0, :], frame_t[..., 1, :], normal_basis_order)

    # h^n_ij = <A_ij, v_n>, then h in the orthonormal tangent frame,
    # h_frame^n_ab = C_ai C_bj h^n_ij with h^n_ij symmetric in ij.
    h11, h12, h22 = (_dot(a[..., None, :], frame_n) for a in curv.normal_hessian)
    h = _symmetric(h11, h12, h22, axis=-1)
    c0, c1 = coeffs[..., 0, :], coeffs[..., 1, :]

    def frame_entry(ca, cb):
        cross = ca[..., 0] * cb[..., 1] + ca[..., 1] * cb[..., 0]
        return ((ca[..., 0] * cb[..., 0])[..., None] * h11
                + cross[..., None] * h12
                + (ca[..., 1] * cb[..., 1])[..., None] * h22)

    h_frame = _symmetric(frame_entry(c0, c0), frame_entry(c0, c1),
                         frame_entry(c1, c1), axis=-1)
    mean = curv.mean_curvature
    mean_normal = _dot(frame_n, mean[..., None, :])
    cos_alpha, unit, omega_norm, degenerate = plane_angles(
        frame_t[..., 0, :], frame_t[..., 1, :], 1.0)

    return GeometryBundle(
        grid=grid, positions=state.positions, first_derivs=first,
        metric=metric, inverse_metric=inverse, det_g=det_g,
        area_element=np.sqrt(det_g), christoffel=christoffel,
        tangent_frame=frame_t, tangent_coeffs=coeffs,
        normal_frame=frame_n, second_ff=h, second_ff_frame=h_frame,
        mean_curvature=mean, mean_normal=mean_normal,
        norm_A2=curv.norm_A2, norm_H2=curv.norm_H2, cos_alpha=cos_alpha,
        lag_angle_unit=unit, lag_omega_norm=omega_norm,
        omega_degenerate=degenerate,
        nabla_bar_j2=nabla_bar_j2_from_shape(h_frame))


def nabla_bar_j2_from_shape(h_frame: np.ndarray) -> np.ndarray:
    """|grad J_Sigma|^2 from the second fundamental form h_frame^n_ab in an
    orthonormal tangent frame, shape (..., 2, 2, 2):

        sum_k (h^1_k2 + h^2_k1)^2 + (h^2_k2 - h^1_k1)^2.

    J_Sigma rotates the tangent and the normal plane by 90 degrees, so its
    covariant derivative is a linear image of h; the sum of squares is
    independent of the frame gauges and >= |H|^2 / 2 identically.
    """
    h = h_frame
    p1 = h[..., 0, 0, 1] + h[..., 1, 0, 0]
    q1 = h[..., 1, 0, 1] - h[..., 0, 0, 0]
    p2 = h[..., 0, 1, 1] + h[..., 1, 1, 0]
    q2 = h[..., 1, 1, 1] - h[..., 0, 1, 0]
    return p1 * p1 + q1 * q1 + p2 * p2 + q2 * q2


nabla_bar_j2_filled = nabla_bar_j2_from_shape  # name kept for bench/tracer.py


def field_derivatives(field: np.ndarray, grid: ParamGrid):
    """Coordinate first derivatives (d_u f, d_v f) of a per-node field."""
    return (scalar_derivative(field, grid, 0, 1),
            scalar_derivative(field, grid, 1, 1))


def laplace_beltrami(field: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """Surface Laplacian g^ij (d2_ij f - Gamma^k_ij d_k f) per node."""
    grid = bundle.grid
    f_u, f_v = field_derivatives(field, grid)
    f_uu = scalar_derivative(field, grid, 0, 2)
    f_vv = scalar_derivative(field, grid, 1, 2)
    f_uv = scalar_derivative(f_u, grid, 1, 1)
    gam = bundle.christoffel
    inv = bundle.inverse_metric

    def covariant(f_ij, i, j):
        return f_ij - gam[..., 0, i, j] * f_u - gam[..., 1, i, j] * f_v

    return (inv[..., 0, 0] * covariant(f_uu, 0, 0)
            + 2.0 * inv[..., 0, 1] * covariant(f_uv, 0, 1)
            + inv[..., 1, 1] * covariant(f_vv, 1, 1))


def gradient_sq(field: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """|grad f|^2 = g^ij d_i f d_j f per node."""
    f_u, f_v = field_derivatives(field, bundle.grid)
    inv = bundle.inverse_metric
    return (inv[..., 0, 0] * f_u * f_u + 2.0 * inv[..., 0, 1] * f_u * f_v
            + inv[..., 1, 1] * f_v * f_v)


def gradient_inner(field_a: np.ndarray, field_b: np.ndarray,
                   bundle: GeometryBundle) -> np.ndarray:
    """Tangential inner product grad f . grad g = g^ij d_i f d_j g."""
    a_u, a_v = field_derivatives(field_a, bundle.grid)
    b_u, b_v = field_derivatives(field_b, bundle.grid)
    inv = bundle.inverse_metric
    return (inv[..., 0, 0] * a_u * b_u
            + inv[..., 0, 1] * (a_u * b_v + a_v * b_u)
            + inv[..., 1, 1] * a_v * b_v)


def project_normal(vectors: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """Project ambient 4-vector fields onto the normal frame span."""
    v1 = bundle.normal_frame[..., 0, :]
    v2 = bundle.normal_frame[..., 1, :]
    return (_dot(v1, vectors)[..., None] * v1
            + _dot(v2, vectors)[..., None] * v2)


def normal_gradient_sq(vectors: np.ndarray, bundle: GeometryBundle) -> np.ndarray:
    """|grad^N X|^2: normal projection of the frame derivatives, squared.

    For the mean curvature field this is the |grad H|^2 entering the
    curvature evolution identity; computing through ambient components keeps
    it frame-gauge invariant.
    """
    d_u, d_v = field_derivatives(vectors, bundle.grid)
    c = bundle.tangent_coeffs
    total = 0.0
    for k in range(2):
        # D_k X = C_ki d_i X along e_k, then its normal components.
        d_k = c[..., k, 0, None] * d_u + c[..., k, 1, None] * d_v
        comps = _dot(bundle.normal_frame, d_k[..., None, :])
        total = total + np.sum(comps * comps, axis=-1)
    return total
