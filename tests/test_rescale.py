"""Blow-up selection and parabolic-rescaling checks.

The selector is exercised twice: on a synthetic trace whose curvature field
is injected analytically (so every selected number has an exact closed form),
and on a real shrinking-torus flow (so the normalization targets are hit by
actual geometry).

Synthetic oracle: states carry |A|^2 = 1/(T - t) uniformly on a tiny patch
near the origin.  With T = 1/2 and r_k = 1/4 the window top edge sits at
t = 31/64; every candidate ball contains the whole patch, so the score
sigma^2 sup|A|^2 grows monotonically in sigma and the selector must return
sigma_k = r_k/2 = 1/8, lambda_k = 8, and rate product exactly 1.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mcf4d.errors import (BadParameter, InsufficientBlowup,
                          InsufficientCoverage, NonFinite)
from mcf4d.flow import FlowTrace, TraceScalars, estimate_singular_time
from mcf4d.geometry import build_geometry
from mcf4d.io import read_snapshot, write_snapshot
from mcf4d.rescale import (BALL_SLACK, PEAK_TIE_RTOL, SIGMA_CANDIDATES,
                           SIGMA_RATIO, _sigma_grid, select_blowup_datum,
                           rescale_flow, validate_rescaled, with_rescaled)
from mcf4d.scenarios import plane


T_HAT = 0.5
R_K = 0.25


def _injected_trace(base, times, a2_fields):
    """Copies of ``base`` at the given times, with the given |A|^2 fields
    injected into the curvature cache."""
    states = [base.transformed(time=t) for t in times]
    trace = FlowTrace(states=states, state_steps=list(range(len(states))),
                      scalars=TraceScalars.from_rows([]),
                      termination_reason="blowup_detected")
    trace._a2_fields.update(enumerate(a2_fields))
    return trace


def _synthetic_trace(times):
    """Identical tiny flat patches at the given times, with |A|^2 = 1/(T-t)
    injected (the real field would be zero)."""
    return _injected_trace(plane(8, 8, halfwidth=0.01), times,
                           [np.full((8, 8), 1.0 / (T_HAT - t)) for t in times])


@pytest.fixture(scope="module")
def synthetic_trace():
    hi = T_HAT - (0.5 * R_K) ** 2          # 31/64, exactly representable
    lo = T_HAT - R_K ** 2
    return _synthetic_trace(np.linspace(lo, hi, 25))


def test_sigma_grid_shape_and_spacing():
    grid = _sigma_grid(R_K)
    assert grid.shape == (SIGMA_CANDIDATES,)
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == 0.5 * R_K
    np.testing.assert_allclose(grid[:-1] / grid[1:], SIGMA_RATIO, rtol=1e-13)
    assert grid[0] > 0


def test_selector_exact_on_synthetic_trace(synthetic_trace):
    rec = select_blowup_datum(synthetic_trace, T_HAT, np.zeros(4), R_K)
    assert rec.sigmaK == 0.125
    assert rec.lambdaK == 8.0
    assert rec.peakTime == T_HAT - (0.5 * R_K) ** 2
    assert rec.peakNode == 0
    assert (rec.lambdaK * rec.sigmaK) ** 2 == 1.0
    first = synthetic_trace.states[-1].positions.reshape(-1, 4)[0]
    np.testing.assert_array_equal(rec.peakPoint, first)


def test_selector_requires_window_coverage():
    trace = _synthetic_trace(np.linspace(0.0, 0.05, 10))
    with pytest.raises(InsufficientCoverage):
        select_blowup_datum(trace, T_HAT, np.zeros(4), R_K)


def test_selector_requires_nodes_near_anchor(synthetic_trace):
    far = np.array([100.0, 0.0, 0.0, 0.0])
    with pytest.raises(InsufficientCoverage):
        select_blowup_datum(synthetic_trace, T_HAT, far, R_K)


@pytest.mark.parametrize("state, node", [(24, (0, 0)), (3, (2, 5))])
def test_selector_names_a_non_finite_curvature_node(state, node):
    # |A|^2 = 1..25 by state over the whole window, one NaN injected.
    times = np.linspace(T_HAT - R_K ** 2, T_HAT - (0.5 * R_K) ** 2, 25)
    fields = [np.full((8, 8), k + 1.0) for k in range(25)]
    fields[state][node] = np.nan
    trace = _injected_trace(plane(8, 8, halfwidth=0.01), times, fields)
    with pytest.raises(NonFinite, match=re.escape(
            f"|A|^2 of stored state {state} at node {node}")) as err:
        select_blowup_datum(trace, T_HAT, np.zeros(4), R_K)
    assert err.value.node == node


@pytest.mark.parametrize("t_hat, anchor, r_k", [
    (T_HAT, np.zeros(4), -R_K),
    (T_HAT, np.zeros(4), 0.0),
    (T_HAT, np.zeros(4), np.nan),
    (np.nan, np.zeros(4), R_K),
    (np.inf, np.zeros(4), R_K),
    (T_HAT, np.array([np.nan, 0.0, 0.0, 0.0]), R_K),
    (T_HAT, np.zeros(3), R_K),
], ids=["negative_radius", "zero_radius", "nan_radius", "nan_T_hat",
        "inf_T_hat", "nan_anchor", "short_anchor"])
def test_selector_rejects_bad_parameters(synthetic_trace, t_hat, anchor, r_k):
    # A bad input is a configuration error, not missing coverage.
    with pytest.raises(BadParameter):
        select_blowup_datum(synthetic_trace, t_hat, anchor, r_k)


def test_rescale_flow_parabolic_transformation(synthetic_trace):
    rec = select_blowup_datum(synthetic_trace, T_HAT, np.zeros(4), R_K)
    rt = rescale_flow(synthetic_trace, rec)
    # Keeps t >= t_k - (sigma_k/2)^2: the last three dyadic sample times.
    assert len(rt.states) == 3
    np.testing.assert_array_equal(rt.times, [-0.25, -0.125, 0.0])
    assert rt.state_steps == [22, 23, 24]
    lam = rec.lambdaK
    orig = synthetic_trace.states[-1]
    np.testing.assert_allclose(
        rt.states[-1].positions, lam * (orig.positions - rec.peakPoint),
        atol=1e-15)
    np.testing.assert_allclose(rt.states[-1].shift1, lam * orig.shift1)
    assert rt.meta["rescaled"] is True
    assert rt.meta["lambda"] == lam
    assert rt.termination_reason == synthetic_trace.termination_reason


def test_validate_rescaled_exact_on_synthetic_trace():
    # A trace of its own: the rescaled trace shares its |A|^2 cache.
    trace = _synthetic_trace(np.linspace(T_HAT - R_K ** 2,
                                         T_HAT - (0.5 * R_K) ** 2, 25))
    rec = with_rescaled(trace,
                        select_blowup_datum(trace, T_HAT, np.zeros(4), R_K))
    rt = rec.rescaledTrace
    lam = rec.lambdaK
    assert lam == 8.0
    # Inject the parabolically scaled curvature: 1/(T-t) / lambda^2 = 1/(1-s),
    # as the base field lambda^2 / (1-s), which lambda^-2 = 2^-6 scales
    # exactly.
    for i, s in zip(rt.states.index, rt.times):
        rt._a2_fields[i] = np.full((8, 8), lam ** 2 / (1.0 - s))
    report = validate_rescaled(rec)
    assert report["originNorm"] == 1.0
    assert report["supBound"] == 1.0
    assert report["lambdaSigmaSq"] == 1.0


def test_validate_requires_attached_trace(synthetic_trace):
    rec = select_blowup_datum(synthetic_trace, T_HAT, np.zeros(4), R_K)
    with pytest.raises(InsufficientCoverage):
        validate_rescaled(rec)


def test_shrinking_torus_rescaling_normalizes_curvature(torus32_trace):
    est = estimate_singular_time(torus32_trace)
    rec = with_rescaled(
        torus32_trace,
        select_blowup_datum(torus32_trace, est.singular_time, np.zeros(4), R_K))
    assert 0.0 < rec.sigmaK <= 0.5 * R_K
    report = validate_rescaled(rec)
    assert abs(report["originNorm"] - 1.0) < 1e-2
    assert report["supBound"] <= 4.05
    assert 0.0 < report["lambdaSigmaSq"] <= 4.0

    # Scaling exactness of the divided form: |A|^2 rebuilt on a rescaled
    # state equals the original field divided by lambda^2, node for node
    # (the rescaled trace itself reads it as that quotient).
    rt = rec.rescaledTrace
    lam = rec.lambdaK
    mid = len(rt.states) // 2
    orig_idx = torus32_trace.state_steps.index(rt.state_steps[mid])
    a2_orig = torus32_trace.curvature_a2(orig_idx)
    np.testing.assert_allclose(build_geometry(rt.states[mid]).norm_A2,
                               a2_orig / lam ** 2, rtol=1e-9)
    # Angles are scale invariant.
    b_r = rt.bundle(mid)
    b_o = torus32_trace.bundle(orig_idx)
    np.testing.assert_allclose(b_r.cos_alpha, b_o.cos_alpha, atol=1e-12)

    # Scalar series rows transform by the same laws.
    lam2 = lam * lam
    t_lo = rec.peakTime - (0.5 * rec.sigmaK) ** 2
    rows = torus32_trace.scalars.t >= t_lo - 1e-15
    np.testing.assert_allclose(
        rt.scalars.t, lam2 * (torus32_trace.scalars.t[rows] - rec.peakTime),
        atol=1e-12)
    np.testing.assert_allclose(
        rt.scalars.area, lam2 * torus32_trace.scalars.area[rows], rtol=1e-12)
    np.testing.assert_allclose(
        rt.scalars.max_A2, torus32_trace.scalars.max_A2[rows] / lam2,
        rtol=1e-12)


def test_estimate_rejects_nonsingular_trace(lagr32_mono):
    with pytest.raises(InsufficientBlowup):
        estimate_singular_time(lagr32_mono)


def _window_states(trace, lo, hi):
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


def _select_reference(trace, T_hat, X0, r_k):
    """Selection as a loop over candidate sigmas and, inside it, over window
    states, with the node distances recomputed for every candidate: the
    reference the selector must match bit for bit.  Returns (sigma, max
    |A|^2, peak node, peak state, tie count), the peak being the smallest
    (node, state) whose |A|^2 is within PEAK_TIE_RTOL of the max; None when
    the window holds fewer than 3 stored states or no ball holds a node,
    where the selector raises InsufficientCoverage."""
    hi = T_hat - (0.5 * r_k) ** 2
    if len(_window_states(trace, T_hat - r_k ** 2, hi)) < 3:
        return None
    best_score, best = -np.inf, None
    for sigma in _sigma_grid(r_k):
        lo = T_hat - (r_k - sigma) ** 2
        radius = (r_k - sigma) + BALL_SLACK * r_k
        fields = {}
        for idx in _window_states(trace, lo, hi):
            pos = trace.states[idx].positions.reshape(-1, 4)
            a2 = trace.curvature_a2(idx).reshape(-1)
            mask = np.linalg.norm(pos - X0, axis=1) <= radius
            if mask.any():
                fields[idx] = np.where(mask, a2, -np.inf)
        if not fields:
            continue
        inner_val = max(f.max() for f in fields.values())
        score = sigma * sigma * inner_val
        if score > best_score:
            floor = inner_val - PEAK_TIE_RTOL * abs(inner_val)
            tied = sorted((int(node), idx) for idx, f in fields.items()
                          for node in np.flatnonzero(f >= floor))
            best_score, best = score, (sigma, inner_val, *tied[0], len(tied))
    return best


@pytest.mark.parametrize("anchor, r_k", [
    pytest.param(anchor, r_k, id=f"{r_k}{tag}")
    for tag, anchor in (("", (0.0, 0.0, 0.0, 0.0)),
                        ("-x1y2", (0.05, 0.0, 0.0, 0.05)),
                        ("-x1y1", (0.1, 0.1, 0.0, 0.0)))
    for r_k in (0.25, 0.125, 0.0625)])
def test_selector_matches_reference_loop(torus32_trace, anchor, r_k):
    # Off the centre the balls hold fewer nodes; at r_k = 0.0625 no ball
    # around (0.1, 0.1, 0, 0) holds one.
    t_hat = estimate_singular_time(torus32_trace).singular_time
    X0 = np.array(anchor)
    expect = _select_reference(torus32_trace, t_hat, X0, r_k)
    if expect is None:
        with pytest.raises(InsufficientCoverage):
            select_blowup_datum(torus32_trace, t_hat, X0, r_k)
        return
    rec = select_blowup_datum(torus32_trace, t_hat, X0, r_k)
    sigma, a2_peak, node, state_idx, ties = expect
    assert rec.sigmaK == sigma
    assert rec.lambdaK == np.sqrt(a2_peak)
    assert rec.peakNode == node
    assert rec.peakTime == torus32_trace.states[state_idx].time
    assert rec.peakTies == ties


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(n=hs.integers(8, 12), halfwidth=hs.floats(0.05, 0.3),
       r_k=hs.sampled_from([0.25, 0.125]), count=hs.integers(6, 12),
       at=hs.tuples(hs.floats(0.0, 1.0), hs.floats(0.0, 1.0)),
       gap=hs.sampled_from([0.0, 0.7, 0.8, 0.9, 1.3]),
       factors=hs.sampled_from([[1.0], [1.0, 4.0, 16.0]]),
       seed=hs.integers(0, 2 ** 16))
def test_selector_matches_reference_loop_on_random_traces(
        n, halfwidth, r_k, count, at, gap, factors, seed):
    # A flat patch that the balls, of radius about r_k, cover only in part
    # for the wider halfwidths, stored at random sorted times in [T -
    # 1.2 r_k^2, T - r_k^2/20] around the window [T - r_k^2, T - r_k^2/4],
    # so the larger candidate sigmas see only the edge state and some traces
    # do not cover the window at all.  |A|^2 takes few integer levels, 1 or
    # 2 at each node and state times a per-state factor (constant, or 1, 4
    # or 16), so maxima tie across nodes and states.  The anchor sits at a
    # gap * r_k above a half-lattice point of the patch: on it, above it
    # with balls holding few nodes, or too far for any ball to hold one.
    rng = np.random.default_rng(seed)
    times = np.sort(T_HAT - rng.uniform(0.05, 1.2, count) * r_k ** 2)
    fields = (rng.choice(factors, size=(count, 1, 1))
              * rng.choice([1.0, 2.0], size=(count, n, n)))
    trace = _injected_trace(plane(n, n, halfwidth), times, fields)
    # Nodes, edge midpoints and cell centers: equidistant nodes tie.
    u, v = (np.round(2 * (n - 1) * np.array(at)) / (n - 1) - 1) * halfwidth
    X0 = np.array([u, gap * r_k, v, 0.0])
    expect = _select_reference(trace, T_HAT, X0, r_k)
    if expect is None:
        with pytest.raises(InsufficientCoverage):
            select_blowup_datum(trace, T_HAT, X0, r_k)
        return
    rec = select_blowup_datum(trace, T_HAT, X0, r_k)
    sigma, a2_peak, node, state_idx, ties = expect
    assert rec.sigmaK == sigma
    assert rec.lambdaK == np.sqrt(a2_peak)
    assert rec.peakNode == node
    assert rec.peakTime == trace.states[state_idx].time
    assert rec.peakTies == ties


def test_selector_ties_prefer_smallest_node_then_earliest_state():
    # Anchor 0.14 above the center node (4, 4) of a 9 x 9 patch of spacing
    # 0.05.  |A|^2 is 1 except 2 at node (4, 5) in state 22 and at node
    # (4, 3) in state 23 of 25: both lie in the winning ball and window, so
    # the node-major order picks node (4, 3) in the later state, where a
    # state-major order would pick node (4, 5) in the earlier one.
    times = np.linspace(T_HAT - R_K ** 2, T_HAT - (0.5 * R_K) ** 2, 25)
    fields = np.ones((25, 9, 9))
    fields[22, 4, 5] = fields[23, 4, 3] = 2.0
    trace = _injected_trace(plane(9, 9, halfwidth=0.2), times, fields)
    X0 = np.array([0.0, 0.14, 0.0, 0.0])
    rec = select_blowup_datum(trace, T_HAT, X0, R_K)
    assert (rec.peakNode, rec.peakTime, rec.peakTies) == (4 * 9 + 3,
                                                          times[23], 2)
    assert _select_reference(trace, T_HAT, X0, R_K)[2:] == (4 * 9 + 3, 23, 2)


def test_peak_does_not_move_with_rounding_noise(torus32_trace, tmp_path):
    # The torus |A|^2 is uniform up to rounding, 2e-13 to 3e-13 relative on
    # the peak states, and its largest value leads the next by 1.5e-14 to
    # 2.6e-14.  Relative noise of 1e-13 reorders the nodes, so it moves a
    # first-maximum peak, but must leave the tie-rule peak and sigma_k in
    # place; lambda_k = sqrt(max |A|^2) moves by at most half the noise, and
    # the rescaled snapshot with it.
    rng = np.random.default_rng(16)
    noisy = FlowTrace(states=torus32_trace.states,
                      state_steps=torus32_trace.state_steps,
                      scalars=torus32_trace.scalars,
                      termination_reason=torus32_trace.termination_reason)
    for i in range(len(torus32_trace.states)):
        a2 = torus32_trace.curvature_a2(i)
        noisy._a2_fields[i] = a2 * (1.0 + 1e-13 * rng.uniform(-1, 1, a2.shape))
    t_hat = estimate_singular_time(torus32_trace).singular_time
    for r_k in (0.25, 0.125, 0.0625):
        snapshots = []
        for trace in (torus32_trace, noisy):
            rec = with_rescaled(trace, select_blowup_datum(
                trace, t_hat, np.zeros(4), r_k))
            rt = rec.rescaledTrace
            path = tmp_path / f"{len(snapshots)}.txt"
            write_snapshot(path, rt.states[int(np.argmin(np.abs(rt.times)))])
            snapshots.append((rec, read_snapshot(path)))
        (rec, snap), (rec_n, snap_n) = snapshots
        assert rec.peakTies > 1
        assert (rec_n.peakNode, rec_n.peakTime, rec_n.sigmaK) == (
            rec.peakNode, rec.peakTime, rec.sigmaK)
        np.testing.assert_array_equal(rec_n.peakPoint, rec.peakPoint)
        assert rec_n.lambdaK == pytest.approx(rec.lambdaK, rel=1e-13, abs=0)
        for attr in ("positions", "time", "shift1", "shift2"):
            np.testing.assert_allclose(getattr(snap_n, attr),
                                       getattr(snap, attr), rtol=1e-13)


def test_rescaling_keeps_no_copy_of_the_states(torus32_trace):
    # Three rescaled traces hold references to the torus's stored states,
    # not mapped copies: together they take less memory than four of its
    # states' positions (32^2 nodes x 4 coordinates x 8 bytes each).
    t_hat = estimate_singular_time(torus32_trace).singular_time
    records = [select_blowup_datum(torus32_trace, t_hat, np.zeros(4), r_k)
               for r_k in (0.25, 0.125, 0.0625)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rescaled = [with_rescaled(torus32_trace, rec) for rec in records]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(len(rec.rescaledTrace.states) > 0 for rec in rescaled)
    assert grown < 4 * torus32_trace.states[0].positions.nbytes, grown
