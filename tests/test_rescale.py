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

import numpy as np
import pytest

from mcf4d.errors import (BadParameter, InsufficientBlowup,
                          InsufficientCoverage)
from mcf4d.flow import FlowTrace, TraceScalars, estimate_singular_time
from mcf4d.rescale import (BALL_SLACK, SIGMA_CANDIDATES, SIGMA_RATIO,
                           _sigma_grid, _window_states, select_blowup_datum,
                           rescale_flow, validate_rescaled, with_rescaled)
from mcf4d.scenarios import plane


T_HAT = 0.5
R_K = 0.25


def _synthetic_trace(times):
    """Identical tiny flat patches at the given times, with |A|^2 = 1/(T-t)
    injected into the curvature cache (the real field would be zero)."""
    base = plane(8, 8, halfwidth=0.01)
    states = [base.transformed(time=t) for t in times]
    trace = FlowTrace(states=states, state_steps=list(range(len(states))),
                      scalars=TraceScalars.from_rows([]),
                      termination_reason="blowup_detected")
    for i, t in enumerate(times):
        trace._a2_fields[i] = np.full((8, 8), 1.0 / (T_HAT - t))
    return trace


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


def test_validate_rescaled_exact_on_synthetic_trace(synthetic_trace):
    rec = with_rescaled(synthetic_trace,
                        select_blowup_datum(synthetic_trace, T_HAT,
                                            np.zeros(4), R_K))
    rt = rec.rescaledTrace
    # Inject the parabolically scaled curvature: 1/(T-t) / lambda^2 = 1/(1-s).
    for i, s in enumerate(rt.times):
        rt._a2_fields[i] = np.full((8, 8), 1.0 / (1.0 - s))
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

    # Scaling exactness of the divided form: |A|^2 of a rescaled state equals
    # the original field divided by lambda^2, node for node.
    rt = rec.rescaledTrace
    lam = rec.lambdaK
    mid = len(rt.states) // 2
    orig_idx = torus32_trace.state_steps.index(rt.state_steps[mid])
    a2_orig = torus32_trace.curvature_a2(orig_idx)
    np.testing.assert_allclose(rt.curvature_a2(mid), a2_orig / lam ** 2,
                               rtol=1e-9)
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


def _select_reference(trace, T_hat, X0, r_k):
    """Selection loop with the node distances recomputed for every candidate
    sigma: the reference the selector must match bit for bit."""
    hi = T_hat - (0.5 * r_k) ** 2
    best_score, best = -np.inf, None
    for sigma in _sigma_grid(r_k):
        lo = T_hat - (r_k - sigma) ** 2
        radius = (r_k - sigma) + BALL_SLACK * r_k
        inner_val, inner_node, inner_state = -np.inf, -1, -1
        for idx in _window_states(trace, lo, hi):
            pos = trace.states[idx].positions.reshape(-1, 4)
            a2 = trace.curvature_a2(idx).reshape(-1)
            mask = np.linalg.norm(pos - X0, axis=1) <= radius
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
            best_score, best = score, (sigma, inner_val, inner_node, inner_state)
    return best


@pytest.mark.parametrize("r_k", [0.25, 0.125, 0.0625])
def test_selector_matches_reference_loop(torus32_trace, r_k):
    t_hat = estimate_singular_time(torus32_trace).singular_time
    rec = select_blowup_datum(torus32_trace, t_hat, np.zeros(4), r_k)
    sigma, a2_peak, node, state_idx = _select_reference(
        torus32_trace, t_hat, np.zeros(4), r_k)
    assert rec.sigmaK == sigma
    assert rec.lambdaK == np.sqrt(a2_peak)
    assert rec.peakNode == node
    assert rec.peakTime == torus32_trace.states[state_idx].time
