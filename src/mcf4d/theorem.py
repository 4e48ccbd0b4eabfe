"""Curvature-normalized angle-pinching verdicts for stored flows.

On the flow rescaled to sup |A|^2 = 1 over its stored states, delta (inf of
the weight kind's angle cosine) and h^2 (sup of |H|^2) give the pinching
quantity delta * exp(p_max h^2 / 2), with the kind's exponent bound p_max
(:data:`functionals.KINDS`), read off the unscaled flow: the cosine is
scale-free and h^2 = sup |H|^2 / sup |A|^2.  The verdict records whether it
stays below one.  The bound is a theorem only for complete ancient flows,
which no computed trace is, so every report carries explicit hypothesis
flags and a violated verdict on sampled data is a diagnostic, not a
counterexample.

The gradient-estimate probe evaluates the pointwise differential inequality
that drives the maximum-principle argument behind the bound, for the
localized diagnostic f = exp(p |H|^2) / cos^2(angle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShortTrace, ZeroCurvature
from .flow import FlowTrace
from .functionals import (KINDS, LocalizedField, _centered_time_derivative,
                          _state_cosine, check_kind, localized_f)
from .geometry import (gradient_inner, gradient_sq, laplace_beltrami,
                       normal_gradient_sq)

LHS_SLACK = 1e-9
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
    sup_a2 = max(float(trace.curvature_a2(i).max())
                 for i in range(len(trace.states)))
    if not np.isfinite(sup_a2) or sup_a2 <= ZERO_CURVATURE_FLOOR:
        raise ZeroCurvature(
            f"sup |A|^2 = {sup_a2:.3e}; a flat flow cannot be normalized")
    return sup_a2


def normalize_flow(trace: FlowTrace) -> dict:
    """Parabolic rescaling F -> lam F, t -> lam^2 t with lam^2 = sup |A|^2.

    The rescaled trace has sup of |A|^2 over stored states equal to one (so
    |H|^2 <= 2 there); applying it twice is the identity up to rounding.  Its
    states are mapped on every read (:meth:`FlowTrace.parabolic`), not
    copied, and its geometry is ``trace``'s scaled by powers of lam, so the
    rescaled trace builds and holds no bundle of its own.

    Returns
    -------
    dict
        ``trace``: the rescaled flow; ``scale``: the factor lam applied.
    """
    lam = float(np.sqrt(_stored_sup_a2(trace)))
    out = trace.parabolic(lam)
    out.meta["normalization_scale"] = lam
    return {"trace": out, "scale": lam}


def extremal_stats(trace: FlowTrace, kind: str) -> dict:
    """Extremes over stored spacetime nodes: delta and h2.

    ``delta`` is the min of the kind's angle cosine, read through the kind
    check (KindMismatch for a lagrangian request on a state that is not
    Lagrangian); ``h2`` the max of |H|^2.
    """
    check_kind(kind)
    delta = np.inf
    h2 = -np.inf
    for i in range(len(trace.states)):
        bundle = trace.bundle(i)
        c = _state_cosine(bundle, kind, i)
        delta = min(delta, float(c.min()))
        h2 = max(h2, float(bundle.norm_H2.max()))
    return {"delta": delta, "h2": h2}


def check_main_theorem(trace: FlowTrace, kind: str) -> TheoremReport:
    """Pinching verdict of the normalized flow, read off ``trace`` as is.

    delta is scale-free and h2 = sup |H|^2 / sup |A|^2 over stored states.
    The verdict is ``satisfied`` when delta * exp(p_max h2 / 2), with the
    kind's p_max, is at most 1 + 1e-9, else ``violated``.
    ``hypotheses.ancient`` is always False for computed traces, so a violated
    verdict never disproves anything: :meth:`TheoremReport.claims_disproof`.
    """
    p_max = check_kind(kind).p_max
    sup_a2 = _stored_sup_a2(trace)
    grid = trace.bundle(0).grid     # a geometry view maps no state
    stats = extremal_stats(trace, kind)
    h2 = stats["h2"] / sup_a2
    lhs = stats["delta"] * float(np.exp(p_max * h2 / 2.0))
    hypotheses = {
        "ancient": False,
        "complete": bool(grid.periodic1 and grid.periodic2),
        "areaRatioChecked": False,
        "supA2Normalized": True,
    }
    return TheoremReport(
        kind=kind, supA2Before=sup_a2, scaleApplied=float(np.sqrt(sup_a2)),
        h2=h2, delta=stats["delta"], lhs=lhs,
        verdict="satisfied" if lhs <= 1.0 + LHS_SLACK else "violated",
        hypotheses=hypotheses)


def _interior_max(trace: FlowTrace, loc: LocalizedField) -> bool:
    """Whether the max of g*f sits strictly inside the cutoff ball, away
    from clamped parameter boundaries and after the first sample.  The
    peak state is read here alone, so none of it outlives the test."""
    i_max, node = loc.max_state_index, loc.max_node
    peak = trace.states[i_max]
    grid = peak.grid
    pos = peak.positions.reshape(-1, 4)[node]
    row, col = divmod(node, grid.n2)
    on_boundary = ((not grid.periodic1 and row in (0, grid.n1 - 1)) or
                   (not grid.periodic2 and col in (0, grid.n2 - 1)))
    return (i_max > 0 and not on_boundary
            and float(pos @ pos) < loc.radius ** 2)


def gradient_estimate_probe(trace: FlowTrace, p: float, radius: float,
                            kind: str) -> dict:
    """Check the differential inequality driving the maximum principle.

    For f = exp(p|H|^2)/cos^2(angle) the continuum bound (valid on flows
    normalized to sup |A|^2 <= 1) is

        (Lap - d/dt) f >= f (p^2 |grad |H|^2|^2 + 2p |grad^N H|^2
                             + coeff |H|^2 - 2 |grad c|^2 / c^2)
                          + 2 c^2 grad f . grad(1/c^2)

    with c the kind's angle cosine and coeff = 2(p_max - p) for the kind's
    exponent bound p_max.  The probe evaluates both sides discretely at
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
    if len(trace.states) < 3:
        raise ShortTrace(f"gradient estimate probe needs >= 3 stored states, "
                         f"got {len(trace.states)}")
    loc = localized_f(trace, p, radius, kind)
    times = loc.times
    interior = _interior_max(trace, loc)
    coeff = 2.0 * (KINDS[kind].p_max - p)
    residual_min = np.inf
    for j in range(1, len(times) - 1):
        bundle = trace.bundle(j)
        f = loc.f[j]
        c = _state_cosine(bundle, kind, j)
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
