"""Weighted-functional checks.

Oracles, computed independently here:
  - Gaussian surface integral of a flat patch through the center is exactly
    one; shifting the patch a distance d multiplies it by exp(-d^2 / 4 tau);
  - the cutoff profile is piecewise closed-form (quintic descent), so its
    values, derivative suprema, and the ratio supremum can be recomputed
    from a dense sample of the polynomial;
  - ball-area ratios of a flat patch: the slice of a ball of radius R by a
    plane at distance d is a disc of area pi (R^2 - d^2);
  - the four angle identities written out one by one, against which the
    angle rule of evolution_residual is checked.
"""

import numpy as np
import pytest

from mcf4d.errors import (BadP, BadParameter, DenominatorFloor, KindMismatch,
                          ShortTrace, TimeOrder, WeightFloor)
from mcf4d.functionals import (CUTOFF_SUP_ABS_FIRST, CUTOFF_SUP_NEG_SECOND,
                               CUTOFF_SUP_RATIO, GaussianWeight, area_ratio,
                               cutoff_psi, evolution_residual,
                               gaussian_density, localized_f,
                               monotonicity_scan, pinching_check,
                               weighted_integral_identity_check, weighted_psi)
from mcf4d.geometry import build_geometry, gradient_sq, laplace_beltrami
from mcf4d.scenarios import clifford_torus, complex_line, plane, symplectic_graph
from mcf4d.stencils import fd_weights
from mcf4d.theorem import extremal_stats, gradient_estimate_probe

from conftest import (LAGR_CENTER, REFINE_LEVELS, SYMPL_CENTER, WEIGHT_T0,
                      thin_trace, window_trace)


def test_gaussian_weight_validates_center():
    with pytest.raises(BadParameter):
        GaussianWeight(np.zeros(3), 0.1)


@pytest.mark.parametrize("center, t0", [
    ([0.0, np.nan, 0.0, 0.0], 0.1),
    ([0.0, 0.0, np.inf, 0.0], 0.1),
    (np.zeros(4), np.nan),
    (np.zeros(4), np.inf),
], ids=["nan_center", "inf_center", "nan_t0", "inf_t0"])
def test_gaussian_weight_rejects_non_finite_data(center, t0):
    # A NaN reference time would pass the kernel's time-order check and
    # give NaN integrals.
    with pytest.raises(BadParameter, match="must be finite"):
        GaussianWeight(center, t0)


def test_kernel_rejects_times_at_or_after_reference():
    w = GaussianWeight(np.zeros(4), 0.1)
    with pytest.raises(TimeOrder):
        w.kernel(np.zeros((2, 2, 4)), 0.1)


def test_kernel_truncates_far_nodes():
    w = GaussianWeight(np.zeros(4), 0.1)
    positions = np.array([[[0.0, 0.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0]]])
    rho, active = w.kernel(positions, 0.0)
    assert active[0, 0] and not active[0, 1]
    assert rho[0, 1] == 0.0
    assert rho[0, 0] == pytest.approx(1.0 / (0.4 * np.pi))


def test_plane_density_is_one():
    st = plane(64, 64, halfwidth=3.0)
    b = build_geometry(st)
    w = GaussianWeight(np.zeros(4), 0.1)
    assert abs(gaussian_density(w, b) - 1.0) < 1e-9


def test_offset_plane_density_matches_gaussian_factor():
    d, t0 = 0.5, 0.1
    st = plane(64, 64, halfwidth=3.0, offset=d)
    b = build_geometry(st)
    w = GaussianWeight(np.zeros(4), t0)
    expect = np.exp(-d * d / (4.0 * t0))
    assert abs(gaussian_density(w, b) - expect) < 1e-9


def test_weighted_psi_equals_density_on_special_lagrangian_plane():
    # cos(theta) = 1 identically, so the weighting changes nothing.
    st = plane(64, 64, halfwidth=3.0)
    b = build_geometry(st)
    w = GaussianWeight(np.zeros(4), 0.1)
    psi = weighted_psi(w, b, "lagrangian")
    assert abs(psi - gaussian_density(w, b)) < 1e-12


def test_weight_floor_triggers_near_vanishing_cosine():
    # Rotate the special-Lagrangian plane by a phase in the z1 factor:
    # cos(theta) becomes cos(phase).  A phase just past arccos of the floor
    # leaves the denominator below the floor everywhere.
    st = plane(32, 32, halfwidth=3.0)
    phase = np.arccos(5e-4)
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(phase), -np.sin(phase)],
                   [np.sin(phase), np.cos(phase)]]
    tilted = st.transformed(rotation=rot)
    b = build_geometry(tilted)
    w = GaussianWeight(np.zeros(4), 0.1)
    assert abs(float(b.cos_theta.mean()) - 5e-4) < 1e-10
    with pytest.raises(WeightFloor):
        weighted_psi(w, b, "lagrangian")


def test_monotonicity_scan_lagrangian(lagr32_mono):
    w = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    scan = monotonicity_scan(thin_trace(lagr32_mono, 4), w, "lagrangian")
    assert scan.weight_kind == "lagrangian"
    assert scan.lhs.max() < 0.0                    # psi strictly decreasing
    assert scan.rhs_drift.min() >= 0.0
    assert scan.rhs_dissipation.min() >= 0.0
    assert scan.rhs_gradient.min() >= 0.0
    assert np.abs(scan.residual()).max() < 1e-4
    assert np.all(np.diff(scan.psi) < 0.0)


def test_monotonicity_scan_symplectic(sympl32_mono):
    w = GaussianWeight(SYMPL_CENTER, WEIGHT_T0)
    scan = monotonicity_scan(thin_trace(sympl32_mono, 4), w, "symplectic")
    assert scan.lhs.max() < 0.0
    assert np.abs(scan.residual()).max() < 1e-4


def test_monotonicity_scan_rejects_short_traces(lagr32_mono):
    w = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    with pytest.raises(ShortTrace):
        monotonicity_scan(thin_trace(lagr32_mono, 40), w, "lagrangian")


def test_unknown_weight_kind_rejected(lagr32_mono):
    w = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    with pytest.raises(BadParameter):
        monotonicity_scan(thin_trace(lagr32_mono, 4), w, "kaehler")


def test_identity_check_agrees_with_scan_residual(lagr32_mono):
    w = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    thin = thin_trace(lagr32_mono, 4)
    scan = monotonicity_scan(thin, w, "lagrangian")
    ident = weighted_integral_identity_check(thin, w)
    assert ident.test_field == "inv_cos_theta"
    np.testing.assert_allclose(ident.residual, scan.residual(), atol=1e-10)


def test_identity_check_plain_kernel_field(lagr32_mono):
    w = GaussianWeight(LAGR_CENTER, WEIGHT_T0)
    ident = weighted_integral_identity_check(thin_trace(lagr32_mono, 4), w,
                                             test_field="one")
    assert np.abs(ident.residual).max() < 1e-4
    with pytest.raises(BadParameter):
        weighted_integral_identity_check(thin_trace(lagr32_mono, 4), w,
                                         test_field="two")


def test_evolution_residual_zero_for_identically_zero_cosine(torus32_trace):
    # cos(alpha) vanishes identically on this surface; away from the
    # singular time the residual is pure rounding noise.
    res = evolution_residual(window_trace(torus32_trace, 100), "cos_alpha")
    assert res.max_abs() < 1e-8


def test_evolution_residual_denominator_floor(torus32_trace):
    # The angle phase sweeps the whole circle on this surface, so the
    # reciprocal-cosine quantity must refuse to divide.
    with pytest.raises(DenominatorFloor):
        evolution_residual(window_trace(torus32_trace, 100), "inv_cos_theta")


def test_evolution_residual_validates_inputs(lagr32_mono):
    with pytest.raises(BadParameter):
        evolution_residual(thin_trace(lagr32_mono, 4), "torsion")


# Every analysis that takes a weight kind, asked for the lagrangian one.
LAGRANGIAN_READS = {
    "monotonicity_scan": lambda tr, w: monotonicity_scan(tr, w, "lagrangian"),
    "weighted_psi": lambda tr, w: weighted_psi(w, tr.bundle(0), "lagrangian"),
    "identity_check": weighted_integral_identity_check,
    "cos_theta": lambda tr, w: evolution_residual(tr, "cos_theta"),
    "inv_cos_theta": lambda tr, w: evolution_residual(tr, "inv_cos_theta"),
    "extremal_stats": lambda tr, w: extremal_stats(tr, "lagrangian"),
    "localized_f": lambda tr, w: localized_f(tr, 0.5, 10.0, "lagrangian"),
    "probe": lambda tr, w: gradient_estimate_probe(tr, 0.5, 10.0,
                                                   "lagrangian"),
}


@pytest.mark.parametrize("read", LAGRANGIAN_READS.values(),
                         ids=LAGRANGIAN_READS.keys())
def test_lagrangian_reads_of_a_symplectic_flow_name_the_kind(sympl32_mono,
                                                             read):
    # cos(theta) means nothing off a Lagrangian surface, so every reader
    # checks the kind before it reads the cosine or its floor.
    with pytest.raises(KindMismatch, match="the trace is not Lagrangian"):
        read(thin_trace(sympl32_mono, 16), GaussianWeight(SYMPL_CENTER,
                                                          WEIGHT_T0))


# The four angle identities as written out one by one, each a field of a
# state's bundle and the spatial side of (d/dt - Lap) field = ...
HAND_WRITTEN = {
    "cos_theta": (lambda x: x.cos_theta, lambda f, b: (
        laplace_beltrami(f, b) + b.norm_H2 * b.cos_theta)),
    "inv_cos_theta": (lambda x: 1.0 / x.cos_theta, lambda f, b: (
        laplace_beltrami(f, b) - b.norm_H2 / b.cos_theta
        - 2.0 * gradient_sq(b.cos_theta, b) / b.cos_theta ** 3)),
    "cos_alpha": (lambda x: x.cos_alpha, lambda f, b: (
        laplace_beltrami(f, b) + b.nabla_bar_j2 * b.cos_alpha)),
    "inv_cos2_alpha": (lambda x: 1.0 / x.cos_alpha ** 2, lambda f, b: (
        laplace_beltrami(f, b) - 6.0 * gradient_sq(b.cos_alpha, b)
        / b.cos_alpha ** 4 - 2.0 * b.nabla_bar_j2 / b.cos_alpha ** 2)),
}


@pytest.mark.parametrize("tag, quantity", [
    ("lagr", "cos_theta"), ("lagr", "inv_cos_theta"),
    ("sympl", "cos_alpha"), ("sympl", "inv_cos2_alpha")])
def test_angle_rule_matches_the_written_out_identities(refine_minis, tag,
                                                       quantity):
    field, source = HAND_WRITTEN[quantity]
    for n, _, _ in REFINE_LEVELS:
        mini = refine_minis[(tag, n)]
        bundles = [mini.bundle(j) for j in range(3)]
        w = fd_weights(mini.times[1], mini.times, 1)[1]
        fields = [field(b) for b in bundles]
        expect = (w[0] * fields[0] + w[1] * fields[1] + w[2] * fields[2]
                  - source(fields[1], bundles[1]))
        got = evolution_residual(mini, quantity).values[0]
        assert np.abs(got - expect).max() <= 1e-15, (n, quantity)


def test_pinching_margin_on_torus_and_graph():
    bt = build_geometry(clifford_torus(32, 32))
    rep = pinching_check(bt)
    assert abs(rep.min_margin - 1.0) < 2e-2       # 2 - (1/2) * 2 = 1
    assert not rep.violating_nodes
    bs = build_geometry(symplectic_graph(32, 32, 0.1))
    rep2 = pinching_check(bs)
    assert rep2.min_margin >= -1e-6
    assert not rep2.violating_nodes


def test_pinching_on_holomorphic_patch_contributes_zero_margin():
    b = build_geometry(complex_line(16, 16))
    rep = pinching_check(b)
    assert abs(rep.min_margin) < 1e-8


def test_cutoff_profile_closed_form_values():
    r = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.2])
    cv = cutoff_psi(r)
    np.testing.assert_allclose(cv.value, [1.0, 1.0, 1.0, 0.5, 0.0, 0.0],
                               atol=1e-14)
    # Quintic-descent derivative at the midpoint: -2 s'(1/2) = -3.75.
    assert cv.first_deriv[3] == pytest.approx(-3.75)
    assert cv.first_deriv[1] == 0.0 and cv.first_deriv[4] == 0.0
    assert cv.second_deriv[1] == 0.0 and cv.second_deriv[4] == 0.0


def test_cutoff_profile_suprema_match_exposed_constants():
    # Dense-grid oracle over the descent interval.
    r = np.linspace(0.5, 1.0, 2_000_001)
    cv = cutoff_psi(r)
    assert cv.first_deriv.max() <= 0.0
    assert abs(np.abs(cv.first_deriv).max() - CUTOFF_SUP_ABS_FIRST) < 1e-6
    assert abs((-cv.second_deriv).max() - CUTOFF_SUP_NEG_SECOND) < 1e-5
    assert abs((-cv.second_deriv).max() - 40.0 / np.sqrt(3.0)) < 1e-5
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cv.value > 0, cv.first_deriv ** 2 / cv.value, 0.0)
    assert abs(ratio.max() - CUTOFF_SUP_RATIO) < 1e-5


def test_cutoff_is_continuously_differentiable_at_the_kinks():
    eps = 1e-9
    for kink in (0.5, 1.0):
        below = cutoff_psi(np.array([kink - eps]))
        above = cutoff_psi(np.array([kink + eps]))
        assert abs(below.value[0] - above.value[0]) < 1e-7
        assert abs(below.first_deriv[0] - above.first_deriv[0]) < 1e-7


@pytest.mark.parametrize("samples", [2095, 1_000_001])
def test_cutoff_value_never_rounds_below_zero(samples):
    # Taken as 1 - s, the value rounded to -2.2e-16 just below r = 1 at
    # these sample counts of the cutoff scan's [0, 1.2] grid.
    assert cutoff_psi(np.linspace(0.0, 1.2, samples)).value.min() >= 0.0


def test_localized_field_symplectic_formula(sympl32_mono):
    thin = thin_trace(sympl32_mono, 20)
    p, radius = 0.45, 50.0
    loc = localized_f(thin, p, radius, "symplectic")
    b = thin.bundle(0)
    expect = np.exp(p * b.norm_H2) / b.cos_alpha ** 2
    np.testing.assert_allclose(loc.f[0], expect, atol=1e-12)
    assert loc.max_value >= expect.max() - 1e-12


def test_localized_field_rejects_bad_exponents(lagr32_mono):
    thin = thin_trace(lagr32_mono, 20)
    with pytest.raises(BadP):
        localized_f(thin, 1.5, 10.0, "lagrangian")
    with pytest.raises(BadP):
        localized_f(thin, 0.7, 10.0, "symplectic")
    # NaN passes a bare radius <= 0 test, and an infinite radius makes the
    # cutoff 1 everywhere; neither localizes anything.
    for radius in (-1.0, np.nan, np.inf):
        with pytest.raises(BadParameter, match="radius"):
            localized_f(thin, 0.5, radius, "lagrangian")


def test_localized_field_matches_pointwise_formula(lagr32_mono):
    thin = thin_trace(lagr32_mono, 20)
    p, radius = 0.9, 50.0
    loc = localized_f(thin, p, radius, "lagrangian")
    b = thin.bundle(1)
    expect = np.exp(p * b.norm_H2) / b.cos_theta ** 2
    np.testing.assert_allclose(loc.f[1], expect, atol=1e-12)
    got = loc.gf[loc.max_state_index].ravel()[loc.max_node]
    assert got == pytest.approx(loc.max_value)


def test_localized_field_denominator_floor(torus32_trace):
    # The angle phase sweeps the circle, so both cosines dip below the floor.
    thin = window_trace(torus32_trace, 100)
    with pytest.raises(DenominatorFloor):
        localized_f(thin, 0.9, 10.0, "lagrangian")
    with pytest.raises(DenominatorFloor):
        localized_f(thin, 0.45, 10.0, "symplectic")


def test_area_ratio_of_flat_patch_slices():
    st = plane(96, 96, halfwidth=3.0)
    b = build_geometry(st)
    # Ball centered on the patch: full disc, ratio pi.
    got = area_ratio(b, np.zeros(4), [1.0, 2.0])
    np.testing.assert_allclose(got, np.pi, rtol=0.1)
    # Ball centered a distance d above: disc of radius sqrt(R^2 - d^2).
    d, R = 0.5, 1.5
    got2 = area_ratio(b, np.array([0.0, d, 0.0, 0.0]), R)
    expect = np.pi * (R * R - d * d) / (R * R)
    np.testing.assert_allclose(got2[0], expect, rtol=0.1)


def test_area_ratio_small_ball_on_curved_surface_is_flat():
    st = clifford_torus(64, 64)
    b = build_geometry(st)
    center = st.positions[0, 0]
    got = area_ratio(b, center, 0.3)
    np.testing.assert_allclose(got[0], np.pi, rtol=0.1)


def test_area_ratio_validates_inputs():
    st = plane(16, 16)
    b = build_geometry(st)
    with pytest.raises(BadParameter):
        area_ratio(b, np.zeros(3), 1.0)
    with pytest.raises(BadParameter):
        area_ratio(b, np.zeros(4), -1.0)
