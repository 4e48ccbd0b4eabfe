"""Acceptance suite: twelve end-to-end checks at their stated tolerances.

Each test is one verdict line under ``pytest -v``.  The checks cover: kernel
normalization on flat patches, the shrinking-torus and shrinking-sphere
closed forms, convergence orders of the evolution identities, monotonicity of
the angle-weighted Gaussian integral and its exact decomposition, curvature
pinching, blow-up rescaling normalization, pinching-quantity verdicts on a
translating soliton and on non-ancient data, scaling/gauge/unitary
invariance, cutoff-localizer bounds, the gradient-estimate probe, and bitwise
determinism of the pipeline artifacts.
"""

import subprocess
import sys

import numpy as np
import pytest

from mcf4d.flow import RunControls, estimate_singular_time, run_flow
from mcf4d.functionals import (LOCALIZER_C1, LOCALIZER_C2, CUTOFF_CONSTANT,
                               CUTOFF_SUP_ABS_FIRST, CUTOFF_SUP_NEG_SECOND,
                               GaussianWeight, cutoff_psi, evolution_residual,
                               gaussian_density, monotonicity_scan,
                               pinching_check, weighted_integral_identity_check,
                               weighted_psi)
from mcf4d.geometry import build_geometry, gradient_sq, laplace_beltrami
from mcf4d.rescale import select_blowup_datum, validate_rescaled, with_rescaled
from mcf4d.scenarios import (clifford_torus, lagrangian_graph, plane,
                             run_sphere_ode, symplectic_graph)
from mcf4d.stencils import fd_weights
from mcf4d.theorem import (check_main_theorem, gradient_estimate_probe,
                           normalize_flow)
from mcf4d.flow import FlowTrace

from conftest import (LAGR_CENTER, REFINE_LEVELS, SYMPL_CENTER, WEIGHT_T0,
                      thin_trace)
from test_geometry import frame_oracle


def test_criterion_01_gaussian_density_of_flat_patches():
    """Kernel integral: one through the center, Gaussian factor off-center."""
    w = GaussianWeight(np.zeros(4), 0.1)
    st = plane(64, 64, halfwidth=3.0)
    b = build_geometry(st)
    assert abs(gaussian_density(w, b) - 1.0) <= 1e-6

    d = 0.5
    st_off = plane(64, 64, halfwidth=3.0, offset=d)
    b_off = build_geometry(st_off)
    expect = np.exp(-d * d / (4.0 * 0.1))
    assert abs(gaussian_density(w, b_off) - expect) <= 1e-6


def test_criterion_02_shrinking_torus_tracks_closed_forms(torus64_trace):
    """Radius law, curvature law, angle conservation, blow-up rate and type."""
    sc = torus64_trace.scalars
    assert torus64_trace.termination_reason == "blowup_detected"
    assert np.abs(sc.min_cos_alpha).max() <= 1e-6

    for i, state in enumerate(torus64_trace.states):
        expect_r = np.sqrt(max(1.0 - 2.0 * state.time, 0.0))
        if expect_r < 0.2:
            continue
        r_mean = np.mean(np.linalg.norm(state.positions, axis=-1)) / np.sqrt(2)
        assert abs(r_mean - expect_r) / expect_r <= 1e-3
        h2 = torus64_trace.bundle(i).norm_H2
        assert np.abs(h2 * expect_r ** 2 / 2.0 - 1.0).max() <= 1e-3

    est = estimate_singular_time(torus64_trace)
    assert est.classification == "TypeI"
    start, stop = est.window
    u = (est.singular_time - sc.t[start:stop]) * sc.max_A2[start:stop]
    assert np.abs(u - 1.0).max() <= 0.05


def test_criterion_03_sphere_ode_closed_forms():
    """Reduced radius equation: exact radius law and constant rate product."""
    trace = run_sphere_ode(radius=1.0, controls=RunControls(max_steps=1024))
    sc = trace.scalars
    t_sing = trace.meta["singular_time"]
    assert t_sing == pytest.approx(0.25, abs=1e-12)
    r_num = np.sqrt(2.0 / sc.max_A2)
    assert np.abs(r_num - np.sqrt(1.0 - 4.0 * sc.t)).max() <= 1e-10
    assert np.abs((t_sing - sc.t) * sc.max_A2 - 0.5).max() <= 1e-6


QUANTITIES = {"lagr": ("cos_theta", "inv_cos_theta"),
              "sympl": ("cos_alpha", "inv_cos2_alpha", "H2")}


def test_criterion_04_evolution_identity_convergence(refine_minis):
    """Residuals of five evolution identities drop ~16x per (dt/4, h/2) level."""
    for tag, quantities in QUANTITIES.items():
        for quantity in quantities:
            values = [evolution_residual(refine_minis[(tag, n)],
                                         quantity).max_abs()
                      for n, _, _ in REFINE_LEVELS]
            for coarse, fine in zip(values, values[1:]):
                ratio = coarse / fine
                assert ratio >= 13.9, (tag, quantity, values)


def _residual_ladder(trace, weight, kind):
    """Max deviation of the decomposition residual from a fine-stride
    reference, at shared interior sample times, for strides 16, 8, 4."""
    ref = monotonicity_scan(thin_trace(trace, 2), weight, kind)
    ref_map = {round(t, 12): r
               for t, r in zip(ref.times[1:-1], ref.residual())}
    eps = []
    for stride in (16, 8, 4):
        scan = monotonicity_scan(thin_trace(trace, stride), weight, kind)
        diffs = [abs(r - ref_map[round(t, 12)])
                 for t, r in zip(scan.times[1:-1], scan.residual())
                 if round(t, 12) in ref_map]
        eps.append(max(diffs))
    return ref, scan, eps


def test_criterion_05_weighted_integral_monotonicity(lagr64_mono,
                                                     sympl64_mono):
    """Psi decreases for both weight kinds, its decomposition residual is
    second order in the sample spacing, and the regrouped identity matches
    the scan to rounding."""
    cases = (("lagrangian", lagr64_mono, LAGR_CENTER),
             ("symplectic", sympl64_mono, SYMPL_CENTER))
    for kind, trace, center in cases:
        weight = GaussianWeight(center, WEIGHT_T0)
        ref, scan4, eps = _residual_ladder(trace, weight, kind)

        assert ref.lhs.max() <= 1e-6, kind        # d psi/dt at every sample
        assert scan4.lhs.max() <= 1e-6, kind
        assert eps[0] / eps[1] >= 3.5, (kind, eps)
        assert eps[1] / eps[2] >= 3.5, (kind, eps)
        order = np.log2(eps[0] / eps[2]) / 2.0
        assert order >= 1.95, (kind, eps)

        if kind == "lagrangian":
            thin4 = thin_trace(trace, 4)
            scan = monotonicity_scan(thin4, weight, kind)
            ident = weighted_integral_identity_check(thin4, weight)
            assert np.abs(ident.residual - scan.residual()).max() <= 1e-10


def test_criterion_06_curvature_pinching(sympl64_mono, torus64_trace):
    """|grad J|^2 >= |H|^2/2 pointwise along graph and torus flows."""
    for i in range(0, len(sympl64_mono.states), 20):
        rep = pinching_check(sympl64_mono.bundle(i))
        assert rep.min_margin >= -1e-6
        assert not rep.violating_nodes
    for i in range(0, len(torus64_trace.states), 20):
        rep = pinching_check(torus64_trace.bundle(i))
        assert rep.min_margin >= -1e-6


def test_criterion_07_blowup_rescaling_normalization(torus32_trace):
    """Selector + rescaler: unit curvature at the marked point, bounded sup,
    bounded rate product, exact parabolic scaling of the divided form."""
    t_hat = estimate_singular_time(torus32_trace).singular_time
    first = None
    for r_k in (0.25, 0.125, 0.0625):
        rec = with_rescaled(torus32_trace, select_blowup_datum(
            torus32_trace, t_hat, np.zeros(4), r_k))
        if first is None:
            first = rec
        val = validate_rescaled(rec)
        assert abs(val["originNorm"] - 1.0) <= 1e-3, (r_k, val)
        assert val["supBound"] <= 4.05, (r_k, val)
        assert 0.0 < val["lambdaSigmaSq"] <= 4.0, (r_k, val)

    rt = first.rescaledTrace
    lam = first.lambdaK
    mid = len(rt.states) // 2
    orig_idx = torus32_trace.state_steps.index(rt.state_steps[mid])
    scaled = torus32_trace.curvature_a2(orig_idx) / lam ** 2
    err = np.abs(rt.curvature_a2(mid) - scaled).max()
    assert err <= 1e-10 * scaled.max()


def test_criterion_08_pinching_quantity_verdicts(grim1025_trace):
    """Translating soliton hits its closed-form pinching value; a steep graph
    flow violates the bound without ever claiming a disproof."""
    rep = check_main_theorem(grim1025_trace, "lagrangian")
    expect = np.cos(1.4) * np.exp(0.5)
    assert abs(rep.lhs - expect) <= 1e-6
    assert rep.verdict == "satisfied"

    steep = run_flow(lagrangian_graph(32, 32, 0.35),
                     RunControls(dt=2.5e-4, max_steps=40, stride=4))
    rep2 = check_main_theorem(steep, "lagrangian")
    assert rep2.verdict == "violated"
    assert rep2.hypotheses["ancient"] is False
    assert not rep2.claims_disproof()


def _u2_real(phi1, phi2, gamma):
    """Real 4x4 form (ambient order x1, y1, x2, y2) of a special unitary
    2x2 matrix built from two phases and a mixing angle."""
    cg, sg = np.cos(gamma), np.sin(gamma)
    u = np.array([[cg * np.exp(1j * phi1), sg * np.exp(1j * phi2)],
                  [-sg * np.exp(-1j * phi2), cg * np.exp(-1j * phi1)]])
    out = np.zeros((4, 4))
    for r in range(2):
        for c in range(2):
            out[2 * r, 2 * c] = u[r, c].real
            out[2 * r, 2 * c + 1] = -u[r, c].imag
            out[2 * r + 1, 2 * c] = u[r, c].imag
            out[2 * r + 1, 2 * c + 1] = u[r, c].real
    return out


def test_criterion_09_invariance_under_rescaling_gauge_and_unitaries(
        torus32_trace):
    """Angles, psi, and the pinching quantity are invariant under parabolic
    rescaling; the frame-free scalars equal those of the frame oracle under
    any frame gauge; unitaries preserve both angles."""
    lam, xc, tc = 3.0, np.array([0.3, -0.2, 0.1, 0.4]), -0.05

    st = lagrangian_graph(32, 32, 0.1)
    w1 = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    b1 = build_geometry(st)
    psi1 = weighted_psi(w1, b1, "lagrangian")
    st2 = st.transformed(scale=lam, offset=xc,
                         time=lam * lam * (st.time - tc))
    w2 = GaussianWeight(lam * (LAGR_CENTER - xc),
                        lam * lam * (WEIGHT_T0 - tc))
    b2 = build_geometry(st2)
    psi2 = weighted_psi(w2, b2, "lagrangian")
    assert abs(psi2 - psi1) <= 1e-9
    assert np.abs(b2.cos_alpha - b1.cos_alpha).max() <= 1e-9
    assert np.abs(b2.lag_angle_unit - b1.lag_angle_unit).max() <= 1e-9

    thin = thin_trace(torus32_trace, 400)
    rep1 = check_main_theorem(thin, "lagrangian")
    scaled = FlowTrace(
        states=[s.transformed(scale=lam, time=lam * lam * s.time)
                for s in thin.states],
        state_steps=list(thin.state_steps), scalars=thin.scalars,
        termination_reason=thin.termination_reason)
    rep2 = check_main_theorem(scaled, "lagrangian")
    assert abs(rep2.lhs - rep1.lhs) <= 1e-9

    sympl = symplectic_graph(32, 32, 0.1)
    rng = np.random.default_rng(7)
    rot = rng.uniform(0.0, 2.0 * np.pi, (32, 32))
    b_def = build_geometry(sympl)
    # Frame gauge: the test-side frame oracle with a random tangent rotation
    # and a permuted normal basis order against the frame-free bundle.
    b_alt = frame_oracle(sympl, rot, (2, 0, 3, 1))
    for field in ("cos_alpha", "lag_angle_unit", "norm_H2", "norm_A2"):
        diff = np.abs(getattr(b_alt, field) - getattr(b_def, field)).max()
        assert diff <= 1e-8, field
    j_diff = np.abs(b_alt.nabla_bar_j2 - b_def.nabla_bar_j2).max()
    assert j_diff <= 1e-8

    u = _u2_real(0.7, -0.3, 0.5)
    rotated = sympl.transformed(rotation=u)
    b_rot = build_geometry(rotated)
    assert np.abs(b_rot.cos_alpha - b_def.cos_alpha).max() <= 1e-10
    assert np.abs(b_rot.lag_angle_unit - b_def.lag_angle_unit).max() <= 1e-10


def test_criterion_10_cutoff_localizer_bounds():
    """Profile property scan, heat-operator and gradient-ratio bounds along
    a moving and a static surface, and the exact frame-gradient identity."""
    r = np.linspace(0.0, 1.2, 20001)
    cv = cutoff_psi(r)
    assert cv.value.min() >= 0.0 and cv.value.max() <= 1.0
    assert np.abs(cv.value[r <= 0.5] - 1.0).max() == 0.0
    assert np.abs(cv.value[r >= 1.0]).max() == 0.0
    assert cv.first_deriv.max() <= 0.0
    assert np.abs(cv.first_deriv).max() <= CUTOFF_SUP_ABS_FIRST + 1e-9
    assert (-cv.second_deriv).max() <= CUTOFF_SUP_NEG_SECOND + 1e-9
    ratio = np.where(cv.value > 0, cv.first_deriv ** 2
                     / np.where(cv.value > 0, cv.value, 1.0), 0.0)
    assert ratio.max() <= CUTOFF_CONSTANT + 1e-6

    # Moving case: shrinking torus crossing the descent region of g.
    trace = run_flow(clifford_torus(24, 24),
                     RunControls(stride=40, blowup_threshold=400.0))
    radius = 1.5
    times = trace.times
    g_fields = [cutoff_psi(np.sum(s.positions ** 2, axis=-1) / radius ** 2
                           ).value for s in trace.states]
    heat_bound = 1.1 * LOCALIZER_C1 / radius ** 2
    ratio_bound = 1.1 * LOCALIZER_C2 / radius ** 2
    for j in range(1, len(times) - 1):
        w = fd_weights(times[j], times[j - 1:j + 2], 1)[1]
        dgdt = (w[0] * g_fields[j - 1] + w[1] * g_fields[j]
                + w[2] * g_fields[j + 1])
        b = trace.bundle(j)
        heat = laplace_beltrami(g_fields[j], b) - dgdt
        assert np.abs(heat).max() <= heat_bound, j
        mask = g_fields[j] >= 1e-3
        if mask.any():
            grad = gradient_sq(g_fields[j], b)
            assert (grad[mask] / g_fields[j][mask]).max() <= ratio_bound, j

    # Static case: flat patch, time derivative identically zero.
    st = plane(128, 128, halfwidth=6.0)
    bp = build_geometry(st)
    rad2 = 5.0
    g = cutoff_psi(np.sum(st.positions ** 2, axis=-1) / rad2 ** 2).value
    assert np.abs(laplace_beltrami(g, bp)).max() <= 1.1 * LOCALIZER_C1 / rad2 ** 2
    mask = g >= 1e-3
    grad = gradient_sq(g, bp)
    assert (grad[mask] / g[mask]).max() <= 1.1 * LOCALIZER_C2 / rad2 ** 2

    # Frame-gradient identity behind the first bound, on both surfaces.
    for state, bundle in ((trace.states[1], trace.bundle(1)), (st, bp)):
        total = sum(gradient_sq(state.positions[..., beta], bundle)
                    for beta in range(4))
        assert np.abs(total - 2.0).max() <= 1e-10


def test_criterion_11_gradient_estimate_probe(refine_minis):
    """The discrete differential inequality never dips below zero on the
    refinement ladder, for both weight kinds."""
    for tag, kind, p in (("lagr", "lagrangian", 0.9),
                         ("sympl", "symplectic", 0.45)):
        for n, _, _ in REFINE_LEVELS:
            norm = normalize_flow(refine_minis[(tag, n)])["trace"]
            res = gradient_estimate_probe(norm, p, 1e3, kind)
            assert res["inequalityResidualMin"] >= -1e-12, (tag, n, res)


def test_criterion_12_byte_identical_reruns(tmp_path):
    """Two identical pipeline invocations produce byte-identical artifacts."""
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            "scenario.name = clifford_torus\n"
            "scenario.n1 = 16\n"
            "scenario.n2 = 16\n"
            "controls.dt = 1e-3\n"
            "controls.max_steps = 40\n"
            "controls.stride = 10\n"
            f"output.directory = {out}\n", encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "mcf4d.cli", "simulate", "--config",
             str(cfg)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    for name in ("timeseries.csv", "snapshot_initial.txt",
                 "snapshot_final.txt"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, name
