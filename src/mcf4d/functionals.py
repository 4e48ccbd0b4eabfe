"""Weighted Gaussian integrals, evolution residuals, and localizer tools.

Everything here is a pure function of stored flow data: the backward-kernel
density, the angle-weighted integral psi with its monotonicity decomposition,
per-node residuals of the parabolic evolution identities, the curvature
pinching margin, and the cutoff/localized diagnostics used by the gradient
estimate probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BadP, BadParameter, DenominatorFloor, KindMismatch,
                     ShortTrace, TimeOrder, WeightFloor, first_node)
from .flow import FlowTrace
from .geometry import (GeometryBundle, gradient_sq, laplace_beltrami,
                       normal_gradient_sq)
from .stencils import fd_weights

DELTA_FLOOR = 1e-3        # hard floor on angle-cosine weight denominators
EXP_FLOOR = -40.0         # Gaussian truncation exponent
PINCH_TOL = 1e-6          # violation threshold for the pinching margin
LAGRANGIAN_DRIFT_TOL = 1e-6   # max |cos alpha| of a Lagrangian state


class WeightKind(NamedTuple):
    """One of the paper's two settings: its angle cosine c, with
    (d/dt - Lap) c = D c, and the bound p_max of the exponent p in
    exp(p |H|^2) / c^2, which also sets the pinching quantity
    delta exp(p_max h^2 / 2) of :mod:`theorem`."""

    cosine: str     # GeometryBundle field of c
    field: str      # GeometryBundle field of D
    p_max: float


KINDS = {
    "lagrangian": WeightKind("cos_theta", "norm_H2", 1.0),
    "symplectic": WeightKind("cos_alpha", "nabla_bar_j2", 0.5),
}

# Cutoff profile: 1 on [0, 1/2], quintic smoothstep descent on [1/2, 1],
# 0 beyond.  With x = 2r - 1 and s(x) = 6x^5 - 15x^4 + 10x^3 the profile is
# psi = 1 - s = (1-x)^3 (1 + 3x + 6x^2), taken in this factored form, which
# no rounding makes negative; psi' = -2 s'(x), psi'' = -4 s''(x).  The
# suprema below are closed-form: s'' peaks at x = (3 - sqrt(3))/6 with value
# 10/sqrt(3), s' peaks at x = 1/2 with value 15/8, and psi'^2/psi =
# 3600 x^4 (1-x) / (6x^2 + 3x + 1) peaks at x = 0.72666035738605152.
CUTOFF_SUP_NEG_SECOND = 40.0 / math.sqrt(3.0)
CUTOFF_SUP_ABS_FIRST = 3.75
CUTOFF_SUP_RATIO = 43.219614873856273
CUTOFF_CONSTANT = max(CUTOFF_SUP_NEG_SECOND, CUTOFF_SUP_RATIO)

# Constants of the localizer bounds |(Lap - d/dt) g| <= C1/R^2 and
# |grad g|^2/g <= C2/R^2 for g = psi(|X|^2/R^2) along a mean curvature flow,
# using (Lap - d/dt)|X|^2 = 4 and |grad |X|^2|^2 <= 4|X|^2.
LOCALIZER_C1 = 4.0 * CUTOFF_SUP_NEG_SECOND + 4.0 * CUTOFF_SUP_ABS_FIRST
LOCALIZER_C2 = 4.0 * CUTOFF_SUP_RATIO


def check_kind(kind: str) -> WeightKind:
    """The KINDS entry of ``kind``; BadParameter for an unknown kind."""
    if kind not in KINDS:
        raise BadParameter(f"unknown weight kind {kind!r}; expected one of "
                           f"{tuple(KINDS)}")
    return KINDS[kind]


def check_localizer(p: float, radius: float, kind: str) -> None:
    """Raise unless :func:`localized_f` accepts (p, radius, kind): a known
    kind, p in (0, p_max) of that kind (BadP), and a finite positive radius
    (BadParameter)."""
    upper = check_kind(kind).p_max
    if not 0.0 < p < upper:
        raise BadP(f"p = {p} outside the open interval (0, {upper}) "
                   f"for kind {kind!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise BadParameter(f"localizer radius must be finite and positive, "
                           f"got {radius}")


def _state_cosine(bundle: GeometryBundle, kind: str,
                  index: int | None = None) -> np.ndarray:
    """The angle cosine of ``kind`` on stored state ``index``, read by every
    analysis before any floor check.  A lagrangian request demands a
    Lagrangian state, max |cos alpha| below LAGRANGIAN_DRIFT_TOL, and raises
    KindMismatch otherwise: cos(theta) means nothing there."""
    if kind == "lagrangian":
        drift = float(np.abs(bundle.cos_alpha).max())
        if drift >= LAGRANGIAN_DRIFT_TOL:
            where = "" if index is None else f" at stored state {index}"
            raise KindMismatch(f"|cos alpha| reaches {drift:.3e}{where}; "
                               "the trace is not Lagrangian")
    return getattr(bundle, KINDS[kind].cosine)


@dataclass(frozen=True)
class GaussianWeight:
    """Backward heat kernel data: center point and reference time.

    The kernel rho(X, t) = exp(-|X - center|^2 / 4(t0 - t)) / (4 pi (t0 - t))
    is evaluated at flow times strictly before the reference time t0.
    """

    center: np.ndarray
    reference_time: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (4,):
            raise BadParameter("Gaussian center must be a 4-vector")
        t0 = float(self.reference_time)
        if not (np.all(np.isfinite(center)) and np.isfinite(t0)):
            raise BadParameter(f"Gaussian center {center.tolist()} and "
                               f"reference time {t0} must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "reference_time", t0)

    def kernel(self, positions: np.ndarray, time: float):
        """Per-node kernel values and the active (non-truncated) mask."""
        tau = self.reference_time - time
        if tau <= 0:
            raise TimeOrder(
                f"flow time {time} is not before the reference time "
                f"{self.reference_time}")
        dist2 = np.sum((positions - self.center) ** 2, axis=-1)
        exponent = -dist2 / (4.0 * tau)
        active = exponent >= EXP_FLOOR
        rho = np.where(active, np.exp(np.maximum(exponent, EXP_FLOOR)), 0.0)
        rho /= 4.0 * np.pi * tau
        return rho, active


def gaussian_density(weight: GaussianWeight, geom: GeometryBundle) -> float:
    """Integral of the backward kernel over the surface (quadrature sum)."""
    rho, _ = weight.kernel(geom.positions, geom.time)
    return float(np.sum(rho * geom.quadrature_weights()))


def _floor_checked_weight(weight: GaussianWeight, geom: GeometryBundle,
                          kind: str, index: int | None = None):
    """Kernel, active mask, and denominator field with the floor enforced."""
    denom = _state_cosine(geom, kind, index)
    rho, active = weight.kernel(geom.positions, geom.time)
    bad = active & (denom < DELTA_FLOOR)
    if np.any(bad):
        node = first_node(bad)
        raise WeightFloor(node, f"weight denominator {denom[node]:.3e} below "
                                f"{DELTA_FLOOR} where the kernel is active")
    return rho, active, denom


def weighted_psi(weight: GaussianWeight, geom: GeometryBundle,
                 kind: str) -> float:
    """Angle-weighted Gaussian integral: kernel / cos(angle) over the surface."""
    check_kind(kind)
    rho, active, denom = _floor_checked_weight(weight, geom, kind)
    integrand = np.where(active, rho / np.where(active, denom, 1.0), 0.0)
    return float(np.sum(integrand * geom.quadrature_weights()))


@dataclass
class MonotonicityReport:
    """Sampled psi values with the three-term decomposition of d psi/dt.

    ``times`` and ``psi`` cover every stored sample; ``lhs`` (the centered
    time difference of psi) and the three nonnegative right-hand-side
    integrals cover the interior samples ``times[1:-1]``.  Up to
    discretization error, lhs = -(drift + dissipation + gradient).
    """

    times: np.ndarray
    psi: np.ndarray
    lhs: np.ndarray
    rhs_drift: np.ndarray
    rhs_dissipation: np.ndarray
    rhs_gradient: np.ndarray
    weight_kind: str

    def residual(self) -> np.ndarray:
        """Defect of the decomposition at interior samples (should -> 0)."""
        return self.lhs + self.rhs_drift + self.rhs_dissipation + self.rhs_gradient


def _centered_time_derivative(times: np.ndarray,
                              values: np.ndarray | list[np.ndarray]
                              ) -> np.ndarray:
    """Three-point first derivative at the interior sample times.

    ``values`` holds one sample per time: a scalar series or a list of
    per-node fields.  Row j - 1 of the result is the derivative at times[j],
    from the stencil on the actual (possibly uneven) times j - 1, j, j + 1.
    """
    out = []
    for j in range(1, len(times) - 1):
        w = fd_weights(times[j], times[j - 1:j + 2], 1)[1]
        out.append(w[0] * values[j - 1] + w[1] * values[j]
                   + w[2] * values[j + 1])
    return np.array(out)


def _drift_field(geom: GeometryBundle, weight: GaussianWeight,
                 tau: float) -> np.ndarray:
    """|H + (F - X0)^perp / 2 tau|^2 per node."""
    offset = geom.project_normal(
        (geom.positions - weight.center).transpose(2, 0, 1).copy())
    vec = geom.mean_curvature + offset / (2.0 * tau)
    return np.sum(vec * vec, axis=0)


def monotonicity_scan(trace: FlowTrace, weight: GaussianWeight,
                      kind: str) -> MonotonicityReport:
    """Evaluate psi along a trace and decompose its decrease rate.

    At every interior stored sample the centered difference of psi is
    compared against the three dissipative integrals: the drift term
    (kernel-weighted |H + (F-X0)^perp/2(t0-t)|^2), the curvature term
    (the kind's D: |H|^2 or the J-gradient norm), and the angle-gradient
    term 2|grad cos|^2/cos^3.
    """
    curvature = check_kind(kind).field
    n = len(trace.states)
    if n < 5:
        raise ShortTrace(f"monotonicity scan needs >= 5 stored states, got {n}")
    times = trace.times
    psi = np.empty(n)
    drift = np.empty(n)
    dissipation = np.empty(n)
    gradient = np.empty(n)
    for i in range(n):
        bundle = trace.bundle(i)
        rho, active, denom = _floor_checked_weight(weight, bundle, kind, i)
        qw = bundle.quadrature_weights()
        safe = np.where(active, denom, 1.0)
        weighted_rho = np.where(active, rho / safe, 0.0) * qw
        psi[i] = np.sum(weighted_rho)
        tau = weight.reference_time - bundle.time
        drift[i] = np.sum(weighted_rho * _drift_field(bundle, weight, tau))
        dissipation[i] = np.sum(weighted_rho * getattr(bundle, curvature))
        grad_c = gradient_sq(denom, bundle)
        gradient[i] = np.sum(rho * qw * 2.0 * grad_c / safe ** 3 * active)
    lhs = _centered_time_derivative(times, psi)
    return MonotonicityReport(times=times, psi=psi, lhs=lhs,
                              rhs_drift=drift[1:-1],
                              rhs_dissipation=dissipation[1:-1],
                              rhs_gradient=gradient[1:-1],
                              weight_kind=kind)


# Angle quantity -> (weight kind, power m) of the kind's cosine c.
ANGLE_POWERS = {"cos_theta": ("lagrangian", 1),
                "inv_cos_theta": ("lagrangian", -1),
                "cos_alpha": ("symplectic", 1),
                "inv_cos2_alpha": ("symplectic", -2)}
EVOLUTION_QUANTITIES = (*ANGLE_POWERS, "H2")


@dataclass
class EvolutionResidual:
    """Per-node defect of a parabolic evolution identity at interior times."""

    quantity: str
    times: np.ndarray            # interior stored times, shape (m,)
    values: np.ndarray           # residual fields, shape (m, n1, n2)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _cos_floor(fields: list[np.ndarray], quantity: str) -> None:
    low = min(float(np.min(np.abs(f))) for f in fields)
    if low < DELTA_FLOOR:
        raise DenominatorFloor(
            f"{quantity}: angle cosine {low:.3e} below {DELTA_FLOOR}")


def evolution_residual(trace: FlowTrace, quantity: str) -> EvolutionResidual:
    """Residual (should -> 0 under refinement) of one evolution identity.

    The time derivative at each interior stored sample uses the three-point
    stencil on the actual sample times; the spatial terms come from the
    geometry of the middle sample.  An angle quantity is a power c^m of a
    kind's cosine (ANGLE_POWERS), read through the kind check; a negative
    power needs c above the floor.  All four obey the angle rule

        (d/dt - Lap) c^m = m D c^m - m (m - 1) c^(m - 2) |grad c|^2

    with the kind's field D.  The fifth, ``H2``, obeys
    (Lap - d/dt)|H|^2 = 2|grad H|^2 - 2 sum <H, A_ij>^2.
    """
    if quantity not in EVOLUTION_QUANTITIES:
        raise BadParameter(f"unknown quantity {quantity!r}; expected one of "
                           f"{EVOLUTION_QUANTITIES}")
    n = len(trace.states)
    if n < 3:
        raise ShortTrace("evolution residual needs >= 3 stored states")
    times = trace.times
    out = []
    for i in range(1, n - 1):
        bundles = [trace.bundle(j) for j in (i - 1, i, i + 1)]
        b = bundles[1]
        if quantity == "H2":
            fields = [x.norm_H2 for x in bundles]
            source = (laplace_beltrami(fields[1], b)
                      - 2.0 * normal_gradient_sq(b.mean_curvature, b)
                      + 2.0 * b.h_dot_a2)
        else:
            kind, m = ANGLE_POWERS[quantity]
            cosines = [_state_cosine(x, kind, j)
                       for j, x in enumerate(bundles, start=i - 1)]
            if m < 0:
                _cos_floor(cosines, quantity)
            fields = cosines if m > 0 else [1.0 / c ** -m for c in cosines]
            c = cosines[1]
            source = (laplace_beltrami(fields[1], b)
                      + m * getattr(b, KINDS[kind].field) * fields[1])
            if m != 1:
                source -= m * (m - 1) * gradient_sq(c, b) / c ** (2 - m)
        dfdt = _centered_time_derivative(times[i - 1:i + 2], fields)[0]
        out.append(dfdt - source)
    return EvolutionResidual(quantity=quantity, times=times[1:-1],
                             values=np.stack(out))


@dataclass
class PinchingReport:
    """Margin of |grad J|^2 - |H|^2/2 over a surface."""

    min_margin: float
    violating_nodes: list[int] = field(default_factory=list)


def pinching_check(bundle: GeometryBundle) -> PinchingReport:
    """Check the curvature pinching |grad J|^2 >= |H|^2 / 2 node-wise.

    |grad J|^2 is the bundle's closed form in the second fundamental form,
    defined at every node, so holomorphic regions (where both sides vanish)
    contribute margin 0 like any other node.
    """
    margin = bundle.nabla_bar_j2 - 0.5 * bundle.norm_H2
    flat = margin.ravel()
    violating = [int(k) for k in np.flatnonzero(flat < -PINCH_TOL)]
    return PinchingReport(min_margin=float(np.min(flat)),
                          violating_nodes=violating)


@dataclass(frozen=True)
class CutoffValue:
    """Cutoff profile sample: value with first and second derivatives."""

    value: np.ndarray
    first_deriv: np.ndarray
    second_deriv: np.ndarray


def cutoff_psi(r) -> CutoffValue:
    """C^2 cutoff profile: 1 on [0, 1/2], quintic descent to 0 at 1.

    Accepts scalars or arrays of nonnegative arguments.  The profile
    constants (suprema of -psi'', |psi'|, and psi'^2/psi) are exposed as
    module constants; ``CUTOFF_CONSTANT`` is the largest of them.
    """
    r = np.asarray(r, dtype=float)
    x = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    descent = (1.0 - x) ** 3 * (1.0 + 3.0 * x + 6.0 * x ** 2)   # 1 - s
    sp = 30.0 * x ** 2 * (x - 1.0) ** 2
    spp = 60.0 * x * (2.0 * x - 1.0) * (x - 1.0)
    inside = (r > 0.5) & (r < 1.0)
    value = np.where(r >= 1.0, 0.0, np.where(inside, descent, 1.0))
    first = np.where(inside, -2.0 * sp, 0.0)
    second = np.where(inside, -4.0 * spp, 0.0)
    return CutoffValue(value=value, first_deriv=first, second_deriv=second)


@dataclass
class LocalizedField:
    """Exponential-curvature diagnostic and its cutoff-localized version.

    ``f`` holds exp(p |H|^2) / cos^2(angle) per stored state; ``gf`` holds
    psi(|X|^2/R^2) * f.  The running spacetime maximum of gf is tracked with
    deterministic tie-breaking (earliest state, then smallest node index),
    with the position of its node.
    """

    kind: str
    p: float
    radius: float
    times: np.ndarray
    f: list[np.ndarray]
    gf: list[np.ndarray]
    max_value: float
    max_state_index: int
    max_node: int
    max_position: np.ndarray


def localized_f(trace: FlowTrace, p: float, radius: float,
                kind: str) -> LocalizedField:
    """Evaluate f = exp(p|H|^2)/cos^2 and g f along a stored trace.

    The exponent coefficient must keep the associated convexity margin
    positive, see :func:`check_localizer`.  A lagrangian request on a
    non-Lagrangian state raises KindMismatch before the angle floor is read.
    """
    check_localizer(p, radius, kind)
    times = trace.times
    f_fields, gf_fields = [], []
    best = (-math.inf, 0, 0, None)      # LocalizedField's last four fields
    for i in range(len(trace.states)):
        bundle = trace.bundle(i)
        c = _state_cosine(bundle, kind, i)
        low = float(np.min(c))
        if low < DELTA_FLOOR:
            raise DenominatorFloor(
                f"angle cosine {low:.3e} below {DELTA_FLOOR}; the localized "
                f"diagnostic needs a positively bounded angle")
        f = np.exp(p * bundle.norm_H2) / c ** 2
        u = np.sum(bundle.positions ** 2, axis=-1) / radius ** 2
        gf = cutoff_psi(u).value * f
        f_fields.append(f)
        gf_fields.append(gf)
        node = int(np.argmax(gf))
        value = float(gf.ravel()[node])
        if value > best[0]:
            best = (value, i, node,
                    bundle.positions.reshape(-1, 4)[node].copy())
    return LocalizedField(kind, p, radius, times, f_fields, gf_fields, *best)


@dataclass
class IdentityResidual:
    """Residual series of the weighted-integral differentiation identity."""

    test_field: str
    times: np.ndarray            # interior sample times
    lhs: np.ndarray              # centered d/dt of the weighted integral
    rhs: np.ndarray              # bulk term minus drift term
    residual: np.ndarray         # lhs - rhs


TEST_FIELDS = ("inv_cos_theta", "one")


def weighted_integral_identity_check(trace: FlowTrace, weight: GaussianWeight,
                                     test_field: str = "inv_cos_theta"
                                     ) -> IdentityResidual:
    """Check d/dt int(f rho) = int((f_t - Lap f) rho) - int(f rho |drift|^2).

    For ``test_field = 'inv_cos_theta'`` the bulk term substitutes the
    closed-form parabolic identity for sec(theta); for ``'one'`` the bulk
    term vanishes and the check reduces to plain kernel monotonicity.  The
    residual should agree with the monotonicity-scan residual to rounding,
    since both evaluate the same identity with different groupings.
    """
    if test_field not in TEST_FIELDS:
        raise BadParameter(f"unknown test field {test_field!r}; expected one "
                           f"of {TEST_FIELDS}")
    n = len(trace.states)
    if n < 5:
        raise ShortTrace(f"identity check needs >= 5 stored states, got {n}")
    times = trace.times
    series = np.empty(n)
    rhs = np.empty(n)
    for i in range(n):
        bundle = trace.bundle(i)
        qw = bundle.quadrature_weights()
        tau = weight.reference_time - bundle.time
        drift = _drift_field(bundle, weight, tau)
        if test_field == "one":
            rho, _ = weight.kernel(bundle.positions, bundle.time)
            series[i] = np.sum(rho * qw)
            rhs[i] = -np.sum(rho * drift * qw)
        else:
            rho, active, denom = _floor_checked_weight(
                weight, bundle, "lagrangian", i)
            f = 1.0 / np.where(active, denom, 1.0)
            c = denom
            bulk = -bundle.norm_H2 / c - 2.0 * gradient_sq(c, bundle) / c ** 3
            series[i] = np.sum(np.where(active, f * rho, 0.0) * qw)
            rhs[i] = np.sum(np.where(active, rho * bulk, 0.0) * qw) \
                - np.sum(np.where(active, f * rho, 0.0) * drift * qw)
    lhs = _centered_time_derivative(times, series)
    return IdentityResidual(test_field=test_field, times=times[1:-1],
                            lhs=lhs, rhs=rhs[1:-1], residual=lhs - rhs[1:-1])


def area_ratio(geom: GeometryBundle, center, radii) -> np.ndarray:
    """Measure of the surface inside balls around a center, divided by R^2."""
    center = np.asarray(center, dtype=float)
    if center.shape != (4,):
        raise BadParameter("ball center must be a 4-vector")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0:
        radii = radii[None]
    if np.any(radii <= 0):
        raise BadParameter("ball radii must be positive")
    dist = np.sqrt(np.sum((geom.positions - center) ** 2, axis=-1))
    qw = geom.quadrature_weights()
    return np.array([float(np.sum(qw[dist < r])) / r ** 2 for r in radii])
