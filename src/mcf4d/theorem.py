"""Curvature-normalized angle-pinching verdicts for stored flows.

A flow is first rescaled so the sup of |A|^2 over its stored states is one.
The extremes delta (inf of the angle cosine) and h^2 (sup of |H|^2) are then
read off and combined into the pinching quantity delta * exp(h^2/4) for
symplectic flows or delta * exp(h^2/2) for Lagrangian ones; the verdict
records whether it stays below one.  The bound is a theorem only for complete
ancient flows, which no computed trace is, so every report carries explicit
hypothesis flags and a violated verdict on sampled data is a diagnostic, not
a counterexample.

The gradient-estimate probe evaluates the pointwise differential inequality
that drives the maximum-principle argument behind the bound, for the
localized diagnostic f = exp(p |H|^2) / cos^2(angle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatch, ZeroCurvature
from .flow import FlowTrace
from .functionals import (_angle_cosine, _centered_time_derivative,
                          check_kind, localized_f)
from .geometry import (gradient_inner, gradient_sq, laplace_beltrami,
                       normal_gradient_sq)

LHS_SLACK = 1e-9
LAGRANGIAN_DRIFT_TOL = 1e-6
ZERO_CURVATURE_FLOOR = 1e-24


@dataclass
class TheoremReport:
    """Angle-pinching verdict with explicit hypothesis bookkeeping."""

    kind: str
    supA2Before: float
    scaleApplied: float
    h2: float
    delta: float
    lhs: float
    verdict: str
    hypotheses: dict

    def claims_disproof(self) -> bool:
        """Whether a violated verdict would actually contradict the bound.

        True only if every hypothesis of the underlying statement holds;
        computed traces always have ``ancient`` False, so this is False and a
        violated verdict means discretization or hypothesis failure.
        """
        return self.verdict == "violated" and all(self.hypotheses.values())


def _stored_sup_a2(trace: FlowTrace) -> float:
    return max(float(trace.curvature_a2(i).max())
               for i in range(len(trace.states)))


def normalize_flow(trace: FlowTrace) -> dict:
    """Parabolic rescaling F -> lam F, t -> lam^2 t with lam^2 = sup |A|^2.

    The rescaled trace has sup of |A|^2 over stored states equal to one (so
    |H|^2 <= 2 there); applying it twice is the identity up to rounding.

    Returns
    -------
    dict
        ``trace``: the rescaled flow; ``scale``: the factor lam applied.
    """
    sup_a2 = _stored_sup_a2(trace)
    if not np.isfinite(sup_a2) or sup_a2 <= ZERO_CURVATURE_FLOOR:
        raise ZeroCurvature(
            f"sup |A|^2 = {sup_a2:.3e}; a flat flow cannot be normalized")
    lam = float(np.sqrt(sup_a2))
    out = trace.parabolic(lam)
    out.meta["normalization_scale"] = lam
    return {"trace": out, "scale": lam}


def extremal_stats(trace: FlowTrace, kind: str) -> dict:
    """Extremes over stored spacetime nodes: delta and h2.

    ``delta`` is the min of cos(alpha) (symplectic) or cos(theta)
    (lagrangian); ``h2`` the max of |H|^2.  A lagrangian request demands the
    trace be Lagrangian: max |cos alpha| below 1e-6 at every stored state.
    """
    check_kind(kind)
    delta = np.inf
    h2 = -np.inf
    for i in range(len(trace.states)):
        bundle = trace.bundle(i)
        if kind == "lagrangian":
            drift = float(np.abs(bundle.cos_alpha).max())
            if drift >= LAGRANGIAN_DRIFT_TOL:
                raise KindMismatch(
                    f"|cos alpha| reaches {drift:.3e} at stored state {i}; "
                    "the trace is not Lagrangian")
        c = _angle_cosine(bundle, kind)
        delta = min(delta, float(c.min()))
        h2 = max(h2, float(bundle.norm_H2.max()))
    return {"delta": delta, "h2": h2}


def check_main_theorem(trace: FlowTrace, kind: str,
                       area_ratio_checked: bool = False) -> TheoremReport:
    """Normalize, extract (delta, h2), and evaluate the pinching quantity.

    The verdict is ``satisfied`` when delta * exp(h2/4) (symplectic) or
    delta * exp(h2/2) (lagrangian) is at most 1 + 1e-9 over the stored
    sample, else ``violated``.  ``hypotheses.ancient`` is always False for
    computed traces, so a violated verdict never disproves anything — see
    :meth:`TheoremReport.claims_disproof`.
    """
    check_kind(kind)
    sup_before = _stored_sup_a2(trace)
    normalized = normalize_flow(trace)
    stats = extremal_stats(normalized["trace"], kind)
    divisor = 4.0 if kind == "symplectic" else 2.0
    lhs = stats["delta"] * float(np.exp(stats["h2"] / divisor))
    grid = trace.states[0].grid
    hypotheses = {
        "ancient": False,
        "complete": bool(grid.periodic1 and grid.periodic2),
        "areaRatioChecked": bool(area_ratio_checked),
        "supA2Normalized": True,
    }
    return TheoremReport(
        kind=kind, supA2Before=sup_before, scaleApplied=normalized["scale"],
        h2=stats["h2"], delta=stats["delta"], lhs=lhs,
        verdict="satisfied" if lhs <= 1.0 + LHS_SLACK else "violated",
        hypotheses=hypotheses)


def gradient_estimate_probe(trace: FlowTrace, p: float, radius: float,
                            kind: str) -> dict:
    """Check the differential inequality driving the maximum principle.

    For f = exp(p|H|^2)/cos^2(angle) the continuum bound (valid on flows
    normalized to sup |A|^2 <= 1) is

        (Lap - d/dt) f >= f (p^2 |grad |H|^2|^2 + 2p |grad^N H|^2
                             + coeff |H|^2 - 2 |grad c|^2 / c^2)
                          + 2 c^2 grad f . grad(1/c^2)

    with c the angle cosine and coeff = 2(1-p) for lagrangian kind,
    2(1/2-p) for symplectic.  The probe evaluates both sides discretely at
    interior stored times and reports the worst residual (left minus right),
    which should only dip below zero by discretization error.

    Returns
    -------
    dict
        ``maxGF``: spacetime max of the cutoff-localized diagnostic g*f;
        ``interiorMax``: True when that max sits strictly inside the ball,
        away from clamped parameter boundaries and after the first sample;
        ``inequalityResidualMin``: min of the residual field.
    """
    loc = localized_f(trace, p, radius, kind)
    times = loc.times

    i_max, node = loc.max_state_index, loc.max_node
    grid = trace.states[i_max].grid
    pos = trace.states[i_max].positions.reshape(-1, 4)[node]
    row, col = divmod(node, grid.n2)
    on_boundary = ((not grid.periodic1 and row in (0, grid.n1 - 1)) or
                   (not grid.periodic2 and col in (0, grid.n2 - 1)))
    interior = (i_max > 0 and not on_boundary
                and float(pos @ pos) < radius ** 2)

    coeff = 2.0 * ((1.0 - p) if kind == "lagrangian" else (0.5 - p))
    residual_min = np.inf
    for j in range(1, len(times) - 1):
        bundle = trace.bundle(j)
        f = loc.f[j]
        c = _angle_cosine(bundle, kind)
        lhs = laplace_beltrami(f, bundle) - _centered_time_derivative(
            times[j - 1:j + 2], loc.f[j - 1:j + 2])[0]
        rhs = f * (p * p * gradient_sq(bundle.norm_H2, bundle)
                   + 2.0 * p * normal_gradient_sq(bundle.mean_curvature,
                                                  bundle)
                   + coeff * bundle.norm_H2
                   - 2.0 * gradient_sq(c, bundle) / c ** 2)
        rhs = rhs + 2.0 * c ** 2 * gradient_inner(f, 1.0 / c ** 2, bundle)
        residual_min = min(residual_min, float((lhs - rhs).min()))
    return {"maxGF": loc.max_value, "interiorMax": interior,
            "inequalityResidualMin": residual_min}
