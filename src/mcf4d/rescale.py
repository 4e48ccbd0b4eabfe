"""Blow-up point selection and parabolic rescaling of stored flows.

Given a flow trace approaching a singular time, a selection radius r_k and a
spatial anchor X0, the selector maximizes sigma^2 * sup |A|^2 over a shrinking
family of parabolic regions, yielding a curvature scale lambda_k, a peak node
and a peak time.  The rescaler then recenters the stored states at the peak
point, magnifies them by lambda_k, and re-stamps times as s = lambda_k^2 (t -
t_k), so the rescaled flow has curvature of order one at the origin at s = 0.
The product lambda_k^2 sigma_k^2 is the rate indicator: bounded along a
shrinking sequence of radii for self-similar (rate-one) singularities,
divergent for slower ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadParameter, InsufficientCoverage
from .flow import SCALAR_COLUMNS, FlowTrace, TraceScalars

SIGMA_CANDIDATES = 64
SIGMA_RATIO = 2.0 ** (-1.0 / 9.0)
BALL_SLACK = 0.02


@dataclass
class RescaleRecord:
    """Outcome of blow-up selection, optionally with the rescaled flow."""

    rK: float
    sigmaK: float
    lambdaK: float
    peakNode: int
    peakTime: float
    peakPoint: np.ndarray
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(4))
    rescaledTrace: FlowTrace | None = None


def _sigma_grid(r_k: float) -> np.ndarray:
    """64 geometric candidates in (0, r_k/2], ascending."""
    i = np.arange(SIGMA_CANDIDATES - 1, -1, -1)
    return (0.5 * r_k) * SIGMA_RATIO ** i


def _window_states(trace: FlowTrace, lo: float, hi: float) -> list[int]:
    """Indices of stored states with t in [lo, hi], plus the latest state at
    or before hi so the window's top edge is always sampled."""
    times = trace.times
    inside = [i for i in range(len(times)) if lo <= times[i] <= hi]
    at_or_before = np.nonzero(times <= hi)[0]
    if at_or_before.size:
        edge = int(at_or_before[-1])
        if edge not in inside:
            inside.append(edge)
    return sorted(inside)


def select_blowup_datum(trace: FlowTrace, T_hat: float, X0: np.ndarray,
                        r_k: float) -> RescaleRecord:
    """Choose (sigma_k, lambda_k, peak node, peak time) for radius r_k.

    For each candidate sigma the inner quantity is the max of |A|^2 over
    stored states with t in [T_hat - (r_k - sigma)^2, T_hat - (r_k/2)^2] and
    nodes within distance (r_k - sigma) + slack of X0; the winning sigma
    maximizes sigma^2 times that max.  Ties prefer the smallest sigma, then
    the smallest node index, then the earliest time.

    Parameters
    ----------
    trace : FlowTrace
        Stored flow, states covering the selection window.
    T_hat : float
        Estimated singular time.
    X0 : ndarray
        Spatial anchor of the shrinking balls (4-vector).
    r_k : float
        Outer selection radius.

    Returns
    -------
    RescaleRecord
        Without ``rescaledTrace``; :func:`with_rescaled` attaches it.

    Raises BadParameter unless r_k is finite and positive, T_hat finite and
    X0 a finite 4-vector; InsufficientCoverage when the stored states do not
    cover the selection window.
    """
    X0 = np.asarray(X0, dtype=float)
    if not (np.isfinite(r_k) and r_k > 0):
        raise BadParameter(f"selection radius must be finite and positive, "
                           f"got {r_k}")
    if not np.isfinite(T_hat):
        raise BadParameter(f"singular time T_hat must be finite, got {T_hat}")
    if X0.shape != (4,) or not np.all(np.isfinite(X0)):
        raise BadParameter(f"anchor must be a finite 4-vector, got "
                           f"{X0.tolist()}")
    hi = T_hat - (0.5 * r_k) ** 2
    full_lo = T_hat - r_k ** 2
    if len(_window_states(trace, full_lo, hi)) < 3:
        raise InsufficientCoverage(
            f"selection window [{full_lo:.6g}, {hi:.6g}] holds fewer than 3 "
            "stored states")

    best_score = -np.inf
    best = None
    dist: dict[int, np.ndarray] = {}    # node distances to X0, per state
    for sigma in _sigma_grid(r_k):
        lo = T_hat - (r_k - sigma) ** 2
        radius = (r_k - sigma) + BALL_SLACK * r_k
        inner_val = -np.inf
        inner_node = -1
        inner_state = -1
        for idx in _window_states(trace, lo, hi):
            if idx not in dist:
                pos = trace.states[idx].positions.reshape(-1, 4)
                dist[idx] = np.linalg.norm(pos - X0, axis=1)
            a2 = trace.curvature_a2(idx).reshape(-1)
            mask = dist[idx] <= radius
            if not mask.any():
                continue
            masked = np.where(mask, a2, -np.inf)
            node = int(np.argmax(masked))
            val = masked[node]
            if val > inner_val or (val == inner_val and node < inner_node):
                inner_val, inner_node, inner_state = val, node, idx
        if inner_state < 0:
            continue
        score = sigma * sigma * inner_val
        if score > best_score:
            best_score = score
            best = (sigma, inner_val, inner_node, inner_state)
    if best is None:
        raise InsufficientCoverage(
            "no surface nodes inside any selection ball around the anchor")

    sigma_k, a2_peak, node, state_idx = best
    state = trace.states[state_idx]
    point = state.positions.reshape(-1, 4)[node].copy()
    return RescaleRecord(rK=r_k, sigmaK=float(sigma_k),
                         lambdaK=float(np.sqrt(a2_peak)), peakNode=node,
                         peakTime=float(state.time), peakPoint=point,
                         anchor=X0.copy())


def rescale_flow(trace: FlowTrace, record: RescaleRecord) -> FlowTrace:
    """Magnified flow F -> lambda_k (F - X_k), s = lambda_k^2 (t - t_k).

    Keeps stored states and scalar rows from t_k - (sigma_k/2)^2 onward and
    maps them by :meth:`FlowTrace.parabolic`.
    """
    t_lo = record.peakTime - (0.5 * record.sigmaK) ** 2 - 1e-15
    keep = [i for i, s in enumerate(trace.states) if s.time >= t_lo]
    rows = trace.scalars.t >= t_lo
    window = FlowTrace(
        states=[trace.states[i] for i in keep],
        state_steps=[trace.state_steps[i] for i in keep],
        scalars=TraceScalars(*(getattr(trace.scalars, c)[rows]
                               for c in SCALAR_COLUMNS)),
        termination_reason=trace.termination_reason, meta=trace.meta)
    out = window.parabolic(record.lambdaK, record.peakTime, record.peakPoint)
    out.meta.update({"rescaled": True, "lambda": record.lambdaK,
                     "peak_time": record.peakTime,
                     "peak_node": record.peakNode})
    return out


def with_rescaled(trace: FlowTrace, record: RescaleRecord) -> RescaleRecord:
    """Record with its ``rescaledTrace`` attached."""
    return replace(record, rescaledTrace=rescale_flow(trace, record))


def validate_rescaled(record: RescaleRecord) -> dict:
    """Normalization checks of a rescaled flow.

    Membership for the sup bound is decided in original coordinates: a node of
    rescaled state F_k at time s belongs to the region when its preimage F =
    F_k / lambda + X_k lies within (r_k - sigma_k/2) + slack of the anchor and
    s is in [-(lambda sigma_k / 2)^2, 0].

    Returns
    -------
    dict
        ``originNorm``: |A| at the peak node at s = 0 (target 1);
        ``supBound``: sup of |A|^2 over that region (target <= 4);
        ``lambdaSigmaSq``: lambda_k^2 sigma_k^2, the rate indicator.
    """
    rt = record.rescaledTrace
    if rt is None:
        raise InsufficientCoverage("record has no rescaled trace attached")
    lam = record.lambdaK
    times = rt.times

    origin_idx = int(np.argmin(np.abs(times)))
    origin_norm = float(np.sqrt(
        rt.curvature_a2(origin_idx).reshape(-1)[record.peakNode]))

    s_lo = -(lam * 0.5 * record.sigmaK) ** 2
    radius = (record.rK - 0.5 * record.sigmaK) + BALL_SLACK * record.rK
    sup_bound = -np.inf
    for i, s in enumerate(times):
        if s < s_lo - 1e-12 or s > 1e-12:
            continue
        original = rt.states[i].positions.reshape(-1, 4) / lam + record.peakPoint
        mask = np.linalg.norm(original - record.anchor, axis=1) <= radius
        if not mask.any():
            continue
        sup_bound = max(sup_bound,
                        float(rt.curvature_a2(i).reshape(-1)[mask].max()))
    return {"originNorm": origin_norm, "supBound": sup_bound,
            "lambdaSigmaSq": float((lam * record.sigmaK) ** 2)}
