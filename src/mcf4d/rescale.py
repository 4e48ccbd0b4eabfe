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

from .errors import BadParameter, InsufficientCoverage, NonFinite
from .flow import SCALAR_COLUMNS, FlowTrace, TraceScalars

SIGMA_CANDIDATES = 64
SIGMA_RATIO = 2.0 ** (-1.0 / 9.0)
BALL_SLACK = 0.02
# (node, state) pairs within this relative distance of a candidate's max
# |A|^2 tie for its peak (see select_blowup_datum).
PEAK_TIE_RTOL = 1e-9


@dataclass
class RescaleRecord:
    """Outcome of blow-up selection, optionally with the rescaled flow."""

    rK: float
    sigmaK: float
    lambdaK: float
    peakNode: int
    peakTime: float
    peakPoint: np.ndarray
    peakTies: int
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(4))
    rescaledTrace: FlowTrace | None = None


def _sigma_grid(r_k: float) -> np.ndarray:
    """64 geometric candidates in (0, r_k/2], ascending."""
    i = np.arange(SIGMA_CANDIDATES - 1, -1, -1)
    return (0.5 * r_k) * SIGMA_RATIO ** i


def check_selection(T_hat: float | None, X0, radii) -> None:
    """Raise BadParameter unless every selection radius is finite and
    positive, T_hat is finite (when given) and X0 is a finite 4-vector: the
    rules :func:`select_blowup_datum` applies, callable before a trace is
    built."""
    for r_k in radii:
        if not (np.isfinite(r_k) and r_k > 0):
            raise BadParameter(f"selection radius must be finite and "
                               f"positive, got {r_k}")
    if T_hat is not None and not np.isfinite(T_hat):
        raise BadParameter(f"singular time T_hat must be finite, got {T_hat}")
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != (4,) or not np.all(np.isfinite(X0)):
        raise BadParameter(f"anchor must be a finite 4-vector, got "
                           f"{X0.tolist()}")


def select_blowup_datum(trace: FlowTrace, T_hat: float, X0: np.ndarray,
                        r_k: float) -> RescaleRecord:
    """Choose (sigma_k, lambda_k, peak node, peak time) for radius r_k.

    For each candidate sigma the inner quantity is the max of |A|^2 over
    nodes within distance (r_k - sigma) + slack of X0 and stored states of
    the window [T_hat - r_k^2, T_hat - (r_k/2)^2] with t >= T_hat - (r_k -
    sigma)^2, plus the window's last state, so the window's top edge is
    always sampled; the winning sigma maximizes sigma^2 times that max
    (the smallest sigma on equal scores), and lambda_k is the square root of
    its max.  Its peak is the first (node, state) pair, smallest node index
    then earliest state, whose |A|^2 is within ``PEAK_TIE_RTOL`` of that max,
    relative, so rounding cannot move the peak of a field that is uniform up
    to rounding; ``peakTies`` counts the pairs within it.  Both region tests
    tighten as sigma grows, so the smallest sigma's region holds every pair
    that any region holds: the window is filtered once by it, and the loop
    over sigma scans only the admitted pairs, in node-major order.

    Parameters
    ----------
    trace : FlowTrace
        Stored flow, states in time order covering the selection window.
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

    Raises BadParameter as :func:`check_selection` does; InsufficientCoverage
    when the window holds fewer than 3 stored states or no ball holds a node;
    NonFinite at a non-finite |A|^2 in the window.
    """
    check_selection(T_hat, X0, [r_k])
    X0 = np.asarray(X0, dtype=float)
    hi = T_hat - (0.5 * r_k) ** 2
    full_lo = T_hat - r_k ** 2
    times = trace.times
    window = np.nonzero((full_lo <= times) & (times <= hi))[0]
    if window.size < 3:
        raise InsufficientCoverage(
            f"selection window [{full_lo:.6g}, {hi:.6g}] holds fewer than 3 "
            "stored states")

    dist = np.stack([np.linalg.norm(
        trace.states[i].positions.reshape(-1, 4) - X0, axis=1)
        for i in window], axis=1)
    a2 = np.stack([trace.curvature_a2(i).reshape(-1) for i in window], axis=1)
    if not np.all(np.isfinite(a2)):
        node, col = divmod(int(np.argmin(np.isfinite(a2))), window.size)
        raise NonFinite(divmod(node, trace.states[0].grid.n2),
                        f"|A|^2 of stored state {window[col]}")

    def admitted(sigma, t, d, top):
        return (((t >= T_hat - (r_k - sigma) ** 2) | top)
                & (d <= (r_k - sigma) + BALL_SLACK * r_k))

    sigmas = _sigma_grid(r_k)
    top = np.arange(window.size) == window.size - 1     # the window's top edge
    keep = np.flatnonzero(admitted(sigmas[0], times[window], dist, top))
    if keep.size == 0:
        raise InsufficientCoverage(
            "no surface nodes inside any selection ball around the anchor")
    col = keep % window.size
    t, top, d, vals = (times[window][col], top[col], dist.ravel()[keep],
                       a2.ravel()[keep])
    best_score, best = -np.inf, None
    for sigma in sigmas:
        masked = np.where(admitted(sigma, t, d, top), vals, -np.inf)
        peak = masked.max()
        if peak == -np.inf:             # no node inside this ball
            continue
        score = sigma * sigma * peak
        if score > best_score:
            ties = masked >= peak - PEAK_TIE_RTOL * abs(peak)
            node, c = divmod(int(keep[np.argmax(ties)]), window.size)
            best_score = score
            best = (sigma, peak, node, window[c], int(ties.sum()))

    sigma_k, a2_peak, node, state_idx, ties = best
    state = trace.states[state_idx]
    point = state.positions.reshape(-1, 4)[node].copy()
    return RescaleRecord(rK=r_k, sigmaK=float(sigma_k),
                         lambdaK=float(np.sqrt(a2_peak)), peakNode=node,
                         peakTime=float(state.time), peakPoint=point,
                         peakTies=ties, anchor=X0.copy())


def rescale_flow(trace: FlowTrace, record: RescaleRecord) -> FlowTrace:
    """Magnified flow F -> lambda_k (F - X_k), s = lambda_k^2 (t - t_k).

    Maps ``trace`` by :meth:`FlowTrace.parabolic` and keeps its stored
    states and scalar rows from t_k - (sigma_k/2)^2 onward, a suffix, since
    stored states are in time order.  The states are mapped on every read,
    so a caller that reads one state many times should hold on to it.  The
    rescaled trace shares ``trace``'s geometry caches, so its |A|^2 is the
    stored field scaled by lambda_k^-2 and :func:`validate_rescaled` builds
    no geometry.
    """
    t_lo = record.peakTime - (0.5 * record.sigmaK) ** 2 - 1e-15
    start = int(np.searchsorted(trace.times, t_lo))
    rows = trace.scalars.t >= t_lo
    out = trace.parabolic(record.lambdaK, record.peakTime, record.peakPoint)
    out = replace(out, states=out.states[start:],
                  state_steps=out.state_steps[start:],
                  scalars=TraceScalars(*(getattr(out.scalars, c)[rows]
                                         for c in SCALAR_COLUMNS)))
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
