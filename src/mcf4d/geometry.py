"""Discrete differential geometry of immersed surfaces in R^4 = C^2.

Everything is computed per grid node with 4th-order stencils and without any
tangent or normal frame: the paper's quantities (the Kahler angle, the
Lagrangian angle, |H|^2, |A|^2 and |grad J|^2) are gauge invariant, so each
has a closed form in the position derivatives F_u, F_v, the Hessian F_ij
and the inverse metric g^ij.

:class:`GeometryBundle` is the geometry of one surface state: it evaluates
the position derivatives once and forms g, g^-1 and H by 2x2 algebra and
ambient dot products; each further field is computed when first read.  The
integrator, its per-step diagnostics and every stored-state analysis read
the same object.  No field forms the normal parts A_ij of the Hessian:
|A|^2 = |H|^2 - 2 K by the Gauss equation, with K from the Gram identity
<A_ij, A_kl> = <F_ij, F_kl> - <F_ij, F_m> g^mn <F_n, F_kl>, and the two
pairings blind to tangential parts take F_ij in place of A_ij exactly:
det[F_u, F_v, x, y] in the normal curvature K^perp of |grad J|^2 =
|A|^2 - 2 K^perp, and <H, x>, since H is normal.  The angles come in real
arithmetic from the six components of F_u ^ F_v = sqrt(det g) e1 ^ e2.

Vector fields are component-major (4, n1, n2), as
:func:`~mcf4d.grid.position_derivatives` returns them; ambient products and
wedges sum over the leading axis.  Scalar fields are (n1, n2).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, FrameInconsistent, first_node
from .grid import ParamGrid, SurfaceState, position_derivatives, scalar_derivative

# Numerical floors, referenced by tests.
DET_G_FLOOR = 1e-12          # immersion requirement: det g above this
COS_CLAMP_EXCESS = 1e-10     # tolerated overshoot of |cos alpha| past 1
OMEGA_NORM_FLOOR = 1e-12     # below this the holomorphic form is degenerate


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ambient inner product of two 4-vector fields: one multiply and one sum
    over the leading axis, which adds the components in order, exactly as
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] does."""
    return (a * b).sum(axis=0)


class GeometryBundle:
    """Frame-free geometry of one surface state, built from the state.

    Construction checks the positions are finite, evaluates (F_u, F_v,
    F_uu, F_uv, F_vv) once, and forms g, det g, g^-1 and H = g^ij A_ij,
    taking normal parts as x - g^ij <x, F_j> F_i (no frame, no Christoffel
    tensor).  Every other field is computed on first read, so an integrator
    stage, which needs only H, pays for nothing else.  The state's ``grid``,
    ``positions`` and ``time`` are kept.

    Raises NonFinite on non-finite positions and DegenerateMetric when
    det g falls below the immersion floor or overflows; the angle fields raise
    FrameInconsistent when |omega(e1, e2)| exceeds 1 beyond rounding.
    """

    def __init__(self, state: SurfaceState):
        state.require_finite()
        with np.errstate(over="ignore", invalid="ignore"):
            f_u, f_v, f_uu, f_uv, f_vv = position_derivatives(state)
            g11 = _dot(f_u, f_u)
            g12 = _dot(f_u, f_v)
            g22 = _dot(f_v, f_v)
            det = g11 * g22 - g12 * g12
        immersed = (det > DET_G_FLOOR) & (det < np.inf)     # NaN fails too
        if not immersed.all():
            node = first_node(~immersed)
            raise DegenerateMetric(node, f"det g = {det[node]:.3e}")
        self.grid, self.positions, self.time = (state.grid, state.positions,
                                                state.time)
        self.f_u, self.f_v = f_u, f_v
        self.hessian = (f_uu, f_uv, f_vv)
        self.g11, self.g12, self.g22, self.det_g = g11, g12, g22, det
        self.inv11 = g22 / det
        self.inv12 = -g12 / det
        self.inv22 = g11 / det
        w = (self.inv11 * f_uu + (2.0 * self.inv12) * f_uv
             + self.inv22 * f_vv)
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
        return x - cu * self.f_u - cv * self.f_v

    @cached_property
    def norm_A2(self) -> np.ndarray:
        """|A|^2 = |H|^2 - 2 K, the Gauss equation, with the Gauss curvature
        K = (<A_11, A_22> - <A_12, A_12>) / det g taken from the Gram
        identity <A_ij, A_kl> = <F_ij, F_kl> - <F_ij, F_m> g^mn <F_n, F_kl>,
        so no normal part of the Hessian is formed."""
        f_uu, f_uv, f_vv = self.hessian
        uu, uv, vv = ((_dot(x, self.f_u), _dot(x, self.f_v))
                      for x in self.hessian)

        def tangential(x, y):
            """<F_ij, F_m> g^mn <F_n, F_kl> from the pairs x = <F_ij, F_m>
            and y = <F_kl, F_n> over m, n = u, v."""
            return (self.inv11 * x[0] * y[0] + self.inv22 * x[1] * y[1]
                    + self.inv12 * (x[0] * y[1] + x[1] * y[0]))

        gauss = (_dot(f_uu, f_vv) - _dot(f_uv, f_uv)
                 - tangential(uu, vv) + tangential(uv, uv))
        return self.norm_H2 - (2.0 / self.det_g) * gauss

    @cached_property
    def norm_H2(self) -> np.ndarray:
        return _dot(self.mean_curvature, self.mean_curvature)

    @cached_property
    def area_element(self) -> np.ndarray:
        return np.sqrt(self.det_g)

    @cached_property
    def _angles(self) -> tuple:
        return plane_angles(self.f_u, self.f_v, self.area_element)

    @property
    def cos_alpha(self) -> np.ndarray:
        """Cosine of the Kahler angle, omega(e1, e2)."""
        return self._angles[0]

    @property
    def cos_theta(self) -> np.ndarray:
        """Cosine of the Lagrangian angle (meaningful on Lagrangian surfaces)."""
        return self._angles[1]

    @cached_property
    def lag_angle_unit(self) -> np.ndarray:
        """e^{i theta}: the Lagrangian angle as a unit complex number."""
        return self._angles[1] + 1j * self._angles[2]

    @cached_property
    def christoffel(self) -> tuple:
        """(Gamma^u, Gamma^v), each the three fields over ij = uu, uv, vv.
        In flat ambient space Gamma^k_ij = g^kl <F_ij, F_l>, the tangential
        coefficients of the Hessian."""
        return tuple(zip(*(self.tangent_coords(x) for x in self.hessian)))

    @cached_property
    def nabla_bar_j2(self) -> np.ndarray:
        """|grad J_Sigma|^2, see :func:`j_gradient_sq`."""
        return j_gradient_sq(self)

    @cached_property
    def h_dot_a2(self) -> np.ndarray:
        """sum_ab <H, A(e_a, e_b)>^2 = g^ik g^jl <H, A_ij><H, A_kl>, with
        <H, A_ij> = <H, F_ij> since H is normal."""
        x11, x12, x22 = (_dot(self.mean_curvature, x) for x in self.hessian)
        p, q, r = self.inv11, self.inv12, self.inv22
        return (p * p * (x11 * x11) + r * r * (x22 * x22)
                + 2.0 * q * q * (x11 * x22)
                + 4.0 * q * (p * (x11 * x12) + r * (x12 * x22))
                + 2.0 * (p * r + q * q) * (x12 * x12))

    def quadrature_weights(self) -> np.ndarray:
        """Per-node surface measure: area element times parameter cell."""
        return self.area_element * self.grid.node_weight()


def plane_angles(a: np.ndarray, b: np.ndarray, area):
    """Kahler and Lagrangian angle data of the oriented plane of a ^ b.

    ``area`` is |a ^ b| per node: 1 for an orthonormal frame (e1, e2), and
    sqrt(det g) for (F_u, F_v), since e1 ^ e2 = F_u ^ F_v / sqrt(det g).
    The forms are read off the wedge p = a ^ b in real arithmetic:
    omega = dx1^dy1 + dx2^dy2 is p01 + p23, and Omega = dz1^dz2 has real
    part p02 - p13 and imaginary part p03 + p12.  Returns cos(alpha) =
    omega(e1, e2) clipped to [-1, 1], cos(theta) and sin(theta) of the unit
    e^{i theta} = Omega(e1, e2) / |Omega(e1, e2)| (1 and 0 where that norm
    is below OMEGA_NORM_FLOOR), the norm itself and the mask of those nodes.

    Raises FrameInconsistent when |cos alpha| exceeds 1 beyond rounding.
    """
    p = _wedge(a, b)
    cos_alpha = (p[0] + p[5]) / area
    excess = np.abs(cos_alpha) - 1.0
    if np.any(excess > COS_CLAMP_EXCESS):
        node = first_node(excess > COS_CLAMP_EXCESS)
        raise FrameInconsistent(node, f"|cos alpha| = {1 + excess[node]:.12f}")
    re = (p[1] - p[4]) / area
    im = (p[2] + p[3]) / area
    omega_norm = np.sqrt(re * re + im * im)
    degenerate = omega_norm < OMEGA_NORM_FLOOR
    norm = np.where(degenerate, 1.0, omega_norm)
    return (np.clip(cos_alpha, -1.0, 1.0), np.where(degenerate, 1.0, re / norm),
            np.where(degenerate, 0.0, im / norm), omega_norm, degenerate)


# Index pairs (a, b), a < b, of the six components of a bivector in R^4.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _wedge(a: np.ndarray, b: np.ndarray) -> list:
    """Components (a ^ b)_ab = a_a b_b - a_b b_a over ``_PAIRS``."""
    return [a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS]


def j_gradient_sq(geom: GeometryBundle) -> np.ndarray:
    """|grad J_Sigma|^2 = |A|^2 - 2 K^perp per node.

    J_Sigma rotates the tangent and the normal plane by 90 degrees, so its
    covariant derivative is a linear image of the second fundamental form.
    K^perp is the normal curvature,

        K^perp = g^kl det[F_u, F_v, A_1k, A_2l] / det g,

    where the (2, 1) term drops out because A_12 ^ A_12 = 0.  Each 4x4
    determinant pairs A_ij ^ A_kl with the Hodge dual of F_u ^ F_v, which
    vanishes on F_u and F_v, so the Hessian F_ij stands in for its normal
    part A_ij exactly.  The value is >= |H|^2 / 2 up to rounding, and needs
    no frame.
    """
    p = _wedge(geom.f_u, geom.f_v)
    dual = (p[5], -p[4], p[3], p[2], -p[1], p[0])
    f_uu, f_uv, f_vv = geom.hessian

    def det(x, y):
        """det[F_u, F_v, x, y] per node."""
        return sum(d * w for d, w in zip(dual, _wedge(x, y)))

    k_perp = (geom.inv11 * det(f_uu, f_uv) + geom.inv12 * det(f_uu, f_vv)
              + geom.inv22 * det(f_uv, f_vv)) / geom.det_g
    return geom.norm_A2 - 2.0 * k_perp


nabla_bar_j2_filled = j_gradient_sq  # name kept for bench/tracer.py


def build_geometry(state: SurfaceState) -> GeometryBundle:
    """Geometry of a surface state, :class:`GeometryBundle` ``(state)``."""
    return GeometryBundle(state)


def field_derivatives(field: np.ndarray, grid: ParamGrid):
    """Coordinate first derivatives (d_u f, d_v f) of a per-node field."""
    return (scalar_derivative(field, grid, 0, 1),
            scalar_derivative(field, grid, 1, 1))


def laplace_beltrami(field: np.ndarray, geom: GeometryBundle) -> np.ndarray:
    """Surface Laplacian g^ij (d2_ij f - Gamma^k_ij d_k f) per node."""
    grid = geom.grid
    f_u, f_v = field_derivatives(field, grid)
    f_uu = scalar_derivative(field, grid, 0, 2)
    f_vv = scalar_derivative(field, grid, 1, 2)
    f_uv = scalar_derivative(f_u, grid, 1, 1)
    gam_u, gam_v = geom.christoffel

    def covariant(f_ij, ij):
        return f_ij - gam_u[ij] * f_u - gam_v[ij] * f_v

    return (geom.inv11 * covariant(f_uu, 0)
            + 2.0 * geom.inv12 * covariant(f_uv, 1)
            + geom.inv22 * covariant(f_vv, 2))


def gradient_sq(field: np.ndarray, geom: GeometryBundle) -> np.ndarray:
    """|grad f|^2 = g^ij d_i f d_j f per node."""
    f_u, f_v = field_derivatives(field, geom.grid)
    return (geom.inv11 * f_u * f_u + 2.0 * geom.inv12 * f_u * f_v
            + geom.inv22 * f_v * f_v)


def gradient_inner(field_a: np.ndarray, field_b: np.ndarray,
                   geom: GeometryBundle) -> np.ndarray:
    """Tangential inner product grad f . grad g = g^ij d_i f d_j g."""
    a_u, a_v = field_derivatives(field_a, geom.grid)
    b_u, b_v = field_derivatives(field_b, geom.grid)
    return (geom.inv11 * a_u * b_u
            + geom.inv12 * (a_u * b_v + a_v * b_u)
            + geom.inv22 * a_v * b_v)


def normal_gradient_sq(vectors: np.ndarray, geom: GeometryBundle) -> np.ndarray:
    """|grad^N X|^2 = g^ij <(d_i X)^perp, (d_j X)^perp> per node.

    For the mean curvature field this is the |grad H|^2 entering the
    curvature evolution identity.  Its d_u is taken node-major, where u leads.
    """
    d_u = scalar_derivative(vectors.transpose(1, 2, 0), geom.grid, 0, 1)
    n_u = geom.normal_part(d_u.transpose(2, 0, 1))
    n_v = geom.normal_part(scalar_derivative(vectors, geom.grid, 1, 1))
    return (geom.inv11 * _dot(n_u, n_u) + 2.0 * geom.inv12 * _dot(n_u, n_v)
            + geom.inv22 * _dot(n_v, n_v))
