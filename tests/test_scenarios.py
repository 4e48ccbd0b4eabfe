"""Scenario construction checks.

Oracles: the closed-form parametrizations themselves, evaluated
independently here (node coordinates, translation speed, curve curvature
max |A|^2 = 1 at the tip of y = -log cos x, angle cos(theta(x)) = cos x).
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mcf4d.errors import BadParameter
from mcf4d.flow import MappedStates, RunControls, scalar_row
from mcf4d.functionals import KINDS
from mcf4d.geometry import GeometryBundle, build_geometry
from mcf4d.grid import SurfaceState
from mcf4d.scenarios import (SCENARIOS, TRANSLATE_RTOL, clifford_torus,
                             generate_scenario, grim_reaper_product,
                             lagrangian_graph, mesh_flow, run_sphere_ode,
                             sphere_patch, symplectic_graph,
                             translating_trace, translation)
from mcf4d.theorem import (check_main_theorem, gradient_estimate_probe,
                           normalize_flow)

from conftest import assert_bundle_matches, count_bundles


def test_every_scenario_builds_valid_geometry_at_defaults():
    for name in SCENARIOS:
        state = generate_scenario(name)
        bundle = build_geometry(state)
        assert bundle.det_g.min() > 0
        assert np.isfinite(bundle.norm_A2).all()


def test_clifford_torus_anchor_node():
    st = clifford_torus(64, 64, radius=1.0)
    np.testing.assert_allclose(st.positions[0, 0],
                               np.array([1.0, 0.0, 1.0, 0.0]), atol=0)


def test_plane_offset_moves_second_coordinate():
    st = generate_scenario("plane", n1=16, n2=16, offset=0.5)
    np.testing.assert_allclose(st.positions[..., 1], 0.5, atol=0)


def test_lagrangian_graph_is_lagrangian_to_rounding():
    st = lagrangian_graph(64, 64, 0.1)
    b = build_geometry(st)
    assert np.abs(b.cos_alpha).max() < 1e-10


def test_symplectic_graph_has_positive_kahler_cosine():
    b = build_geometry(symplectic_graph(32, 32, 0.1))
    assert b.cos_alpha.min() > 0.9


def test_grim_reaper_closed_forms():
    st = grim_reaper_product(257, 16, x_max=1.4)
    b = build_geometry(st)
    x = -1.4 + st.grid.axis_coords(0)
    # Curve curvature kappa = cos x peaks at 1 in the middle; the line
    # factor contributes nothing, so max |A|^2 = 1 at x = 0.
    mid = 128
    assert abs(x[mid]) < 1e-12
    assert abs(b.norm_A2[mid, 0] - 1.0) < 1e-6
    assert abs(b.norm_A2.max() - 1.0) < 1e-6
    expect = np.cos(x)[:, None] * np.ones((1, 16))
    assert np.abs(b.cos_theta - expect).max() < 1e-4


def test_grim_reaper_translates_at_unit_speed():
    a = grim_reaper_product(65, 16, time=0.0)
    c = grim_reaper_product(65, 16, time=0.3)
    delta = c.positions - a.positions
    np.testing.assert_allclose(delta[..., 1], 0.3, atol=1e-14)
    assert np.abs(delta[..., [0, 2, 3]]).max() < 1e-14


def test_translating_trace_carries_times_and_scalars():
    tr = translating_trace(lambda t: grim_reaper_product(65, 16, time=t),
                           np.array([0.0, 0.05, 0.1]))
    assert tr.termination_reason == "reached_t_end"
    np.testing.assert_allclose(tr.times, [0.0, 0.05, 0.1])
    assert len(tr.scalars) == 3
    with pytest.raises(BadParameter):
        translating_trace(lambda t: grim_reaper_product(65, 16, time=t),
                          np.array([0.1, 0.1]))


def _ridge(t):
    return grim_reaper_product(65, 16, time=t)


def _scaled_ridge(t):
    state = _ridge(0.0)
    return SurfaceState(state.grid, (1.0 + t) * state.positions, t,
                        state.shift1, state.shift2)


def _reseamed_ridge(t):
    state = _ridge(t)
    return SurfaceState(state.grid, state.positions, t, state.shift1,
                        state.shift2 + np.array([0.0, t, 0.0, 0.0]))


def _nan_ridge(t):
    state = _ridge(t)
    if t > 0:
        state.positions[3, 5, 1] = np.nan
    return state


@pytest.mark.parametrize("builder", [
    lambda t: grim_reaper_product(65, 16, x_max=1.4 - t, time=t),
    _scaled_ridge, _reseamed_ridge, _nan_ridge,
], ids=["moving_x_max", "scaled_about_origin", "changed_seam_shift",
        "nan_position"])
def test_translating_trace_rejects_a_sample_that_is_not_a_translate(builder):
    with pytest.raises(BadParameter, match=r"sample at t = 0\.05 "):
        translating_trace(builder, np.array([0.0, 0.05, 0.1]))


def test_translating_trace_views_one_geometry(grim257_trace):
    tr = grim257_trace
    first = tr.bundle(0)
    for i, state in enumerate(tr.states):
        view = tr.bundle(i)
        assert (np.array_equal(view.positions, state.positions)
                and view.time == state.time)
        assert view.f_u is first.f_u
        assert view.mean_curvature is first.mean_curvature
        assert tr.curvature_a2(i) is first.norm_A2
        # The rebuilt oracle carries the rounding of y = -log cos x + t
        # (2e-16) through second differences (~1/h^2): measured 3.0e-12 of
        # max sum <H, A_ij>^2 and 1.9e-12 of max |H|^2 here.
        assert_bundle_matches(view, state, rtol=1e-11)
    sc = tr.scalars
    assert list(sc.step) == [0, 1, 2]
    np.testing.assert_array_equal(sc.t, tr.times)
    for name in ("area", "max_A2", "max_H2", "min_cos_alpha",
                 "min_cos_theta", "min_detg"):
        column = getattr(sc, name)
        assert (column == column[0]).all(), name


def test_ridge_theorem_pipeline_builds_one_geometry(monkeypatch):
    built = count_bundles(monkeypatch)
    tr = translating_trace(lambda t: grim_reaper_product(1025, 16, time=t),
                           np.linspace(0.0, 0.1, 5))
    report = check_main_theorem(tr, "lagrangian")
    gradient_estimate_probe(normalize_flow(tr)["trace"], 0.9, 10.0,
                            "lagrangian")
    assert len(built) == 1 and built[0] is tr.states.base[0]
    assert abs(report.lhs - np.cos(1.4) * np.exp(0.5)) <= 1e-6


def test_views_map_a_sample_only_when_its_positions_are_read(monkeypatch):
    # A geometry view maps its stored state on the first read of its
    # positions.  The theorem check reads none.  The probe on the normalized
    # ridge reads the positions of each of the 5 samples for the cutoff,
    # each read one map (the translation and the normalization composed),
    # and keeps the peak's position from that read.
    tr = translating_trace(lambda t: grim_reaper_product(65, 16, time=t),
                           np.linspace(0.0, 0.1, 5))
    normalized = normalize_flow(tr)["trace"]
    mapped = []
    transformed = SurfaceState.transformed

    def counted(self, *args, **kwargs):
        mapped.append(self)
        return transformed(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceState, "transformed", counted)
    check_main_theorem(tr, "lagrangian")
    assert mapped == []
    gradient_estimate_probe(normalized, 0.9, 10.0, "lagrangian")
    assert len(mapped) == 5
    view = normalized.bundle(2)
    assert view.grid is tr.states.base[0].grid
    assert view.time == normalized.times[2]
    view.mean_curvature
    assert len(mapped) == 5
    positions = view.positions
    assert len(mapped) == 6 and view.positions is positions
    monkeypatch.undo()
    assert np.array_equal(positions, normalized.states[2].positions)


def test_sphere_trace_views_one_geometry(monkeypatch):
    built = count_bundles(monkeypatch)
    tr = run_sphere_ode(1.0, RunControls(stride=256))
    views = [tr.bundle(k) for k in range(len(tr.states))]
    assert all(np.isfinite(view.h_dot_a2).all() for view in views)
    assert len(built) == 1 and len(views) == 9
    monkeypatch.undo()
    for view, state in zip(views, tr.states):
        assert_bundle_matches(view, state)


@pytest.mark.parametrize("r0", [1.0, 1.3])
def test_sphere_states_are_the_initial_patch_scaled(r0):
    tr = run_sphere_ode(r0, RunControls(stride=100))
    patch0 = sphere_patch(radius=r0)
    scales = np.sqrt(r0 * r0 - 4.0 * tr.times) / r0
    for state, t, scale in zip(tr.states, tr.times, scales):
        want = patch0.positions * scale
        assert state.positions.tobytes() == want.tobytes() and state.time == t
        assert state.grid == patch0.grid


def test_translating_states_move_the_first_by_its_first_node():
    times = np.linspace(0.0, 0.1, 7)
    tr = translating_trace(_ridge, times)
    first = _ridge(0.0)
    scale = np.abs(_ridge(times[-1]).positions).max()
    for state, t in zip(tr.states, times):
        own = _ridge(t)
        d = own.positions[0, 0] - first.positions[0, 0]
        want = first.positions + d
        assert state.positions.tobytes() == want.tobytes() and state.time == t
        assert (np.abs(state.positions - own.positions).max()
                <= TRANSLATE_RTOL * scale)


def _mapped_traces():
    return {"sphere": run_sphere_ode(1.0, RunControls(stride=256)),
            "translation": translating_trace(_ridge,
                                             np.linspace(0.0, 0.1, 6))}


@pytest.mark.parametrize("name", ["sphere", "translation"])
def test_mapped_states_index_and_slice_as_a_list(name):
    states = _mapped_traces()[name].states
    n = len(states)
    listed = [states[k] for k in range(n)]
    for k in range(-n, n):
        assert states[k].positions.tobytes() == listed[k].positions.tobytes()
        assert states[k].time == listed[k].time
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            states[k]
    for part in (slice(1, None), slice(None, -1), slice(-3, None),
                 slice(None, None, 2), slice(4, 1, -1), slice(n, None)):
        got, want = states[part], listed[part]
        assert isinstance(got, MappedStates) and len(got) == len(want)
        np.testing.assert_array_equal(got.times, [s.time for s in want])
        for a, b in zip(got, want):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.time == b.time


@pytest.mark.parametrize("name", ["sphere", "translation"])
def test_times_and_curvature_map_no_positions(name, monkeypatch):
    tr = _mapped_traces()[name]
    rescaled = tr.parabolic(2.0, 0.01, np.ones(4))
    want = [tr.bundle(k).norm_A2 for k in range(len(tr.states))]
    mapped = []
    transformed = SurfaceState.transformed

    def counted(self, *args, **kwargs):
        mapped.append(self)
        return transformed(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceState, "transformed", counted)
    times = tr.times
    np.testing.assert_array_equal(rescaled.times, 4.0 * (times - 0.01))
    np.testing.assert_array_equal(tr.states[1:].times, times[1:])
    np.testing.assert_array_equal(rescaled.states[::2].times,
                                  4.0 * (times[::2] - 0.01))
    base = tr._bundles[0].norm_A2
    for k, a2 in enumerate(want):
        assert tr.curvature_a2(k).tobytes() == a2.tobytes()
        scale = 2.0 * tr.states.scales[k]
        assert (rescaled.curvature_a2(k).tobytes()
                == (scale ** -2 * base).tobytes())
    # The one cached field is the base state's own norm_A2 array.
    assert mapped == [] and list(tr._a2_fields) == [0]
    assert tr._a2_fields[0] is base
    tr.states[-1]
    rescaled.states[0]
    assert len(mapped) == 2


def _read_geometry(state):
    """The state's geometry with the fields of its scalar row read."""
    geom = GeometryBundle(state)
    scalar_row(0, geom)
    return geom


def _traced_bytes(make) -> tuple:
    """(retained, peak) bytes traced while ``make()`` runs, its result kept."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = make()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return retained - base, peak - base


@pytest.mark.parametrize("name", ["sphere", "translation"])
def test_an_exact_trace_holds_one_state_and_one_geometry(name):
    # Measured with numpy 2.4: 0.78 / 1.19 MB (retained / peak) for the
    # 2048-sample sphere and 0.60 / 0.67 MB for the 1000-sample ridge, against
    # 52 and 35 MB when every sample kept its own positions.  The bound allows
    # one geometry, four states' positions and 512 bytes of bookkeeping
    # (scalar row, time, scale, offset, step) per sample.
    if name == "sphere":
        state = sphere_patch()
        n = 2048
        make = lambda: run_sphere_ode(controls=RunControls(max_steps=n - 1))
    else:
        state = _ridge(0.0)
        n = 1000
        make = lambda: translating_trace(_ridge, np.linspace(0.0, 0.1, n))
    geometry = _traced_bytes(lambda: _read_geometry(state))[0]
    bound = geometry + 4 * state.positions.nbytes + 512 * n
    retained, peak = _traced_bytes(make)
    assert retained <= bound and peak <= bound, (retained, peak, bound)


def test_sphere_ode_matches_closed_form_radius():
    tr = run_sphere_ode(1.0, RunControls(stride=100))
    assert tr.termination_reason == "blowup_detected"
    assert tr.meta["mode"] == "sphere_ode"
    t_sing = tr.meta["singular_time"]
    assert abs(t_sing - 0.25) < 1e-14
    sc = tr.scalars
    np.testing.assert_allclose((t_sing - sc.t) * sc.max_A2, 0.5, atol=1e-12)
    np.testing.assert_allclose(sc.max_H2 / sc.max_A2, 2.0, atol=1e-12)
    r_model = np.sqrt(1.0 - 4.0 * tr.times)
    for state, r in zip(tr.states, r_model):
        radius = np.sqrt(np.sum(state.positions ** 2, axis=-1))
        assert np.abs(radius - r).max() < 1e-12


def test_sphere_ode_respects_t_end():
    tr = run_sphere_ode(1.0, RunControls(t_end=0.1, stride=100))
    assert tr.termination_reason == "reached_t_end"
    assert abs(tr.scalars.t[-1] - 0.1) < 1e-14


@pytest.mark.parametrize("values", [
    {"t_end": -1.0}, {"t_end": 0.0}, {"blowup_threshold": np.inf},
    {"blowup_threshold": 1e300}, {"blowup_threshold": 1e17},
    {"blowup_threshold": 2.0}, {"blowup_threshold": 1.0},
    {"blowup_threshold": 1e15},
], ids=["t_end_negative", "t_end_zero", "threshold_inf", "threshold_1e300",
        "threshold_1e17", "threshold_initial", "threshold_below_initial",
        "threshold_1e15"])
def test_sphere_ode_rejects_a_stop_time_off_the_flow(values):
    # A stop time at or below 0 (RunControls rejects t_end <= 0, and |A|^2
    # starts at 2/r0^2 = 2), or one that rounds onto the singular time 1/4
    # (0.5 / threshold below half an ulp of 1/4), has no run to sample; at
    # 1e15 the last of 2048 samples geometric in T - t fall within an ulp.
    with pytest.raises(BadParameter):
        run_sphere_ode(1.0, RunControls(**values))


@pytest.mark.parametrize("radius", [np.nan, np.inf])
def test_sphere_ode_rejects_a_radius_that_is_not_finite(radius):
    # Named as the radius, before np.geomspace sees it (the suite turns its
    # RuntimeWarning into an error).
    with pytest.raises(BadParameter, match="radius must be finite"):
        run_sphere_ode(radius)


def test_sphere_ode_samples_are_geometric_in_the_time_to_go():
    # As an adaptive run's steps dt ~ RKC_ACCURACY / |A|^2 are: T - t falls
    # by one ratio per sample from T at t = 0 to T - t_stop at the stop.
    tr = run_sphere_ode(1.0)
    t = tr.scalars.t
    assert t.size == 2048 and t[0] == 0.0 and t[-1] == 0.25 - 0.5 / 1e4
    ratios = (0.25 - t[1:]) / (0.25 - t[:-1])
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_sphere_ode_needs_thirty_two_samples():
    with pytest.raises(BadParameter, match="max_steps >= 31"):
        run_sphere_ode(1.0, RunControls(max_steps=30))
    assert len(run_sphere_ode(1.0, RunControls(max_steps=31)).scalars.t) == 32


def test_every_scenario_kind_is_a_weight_kind():
    assert {entry.kind for entry in SCENARIOS.values()} <= set(KINDS)


def test_sphere_ode_stops_short_of_the_singular_time_at_a_high_threshold():
    sc = run_sphere_ode(1.0, RunControls(blowup_threshold=1e15,
                                         max_steps=31)).scalars
    assert sc.t[-1] < 0.25 and sc.min_detg[-1] > 0
    assert np.isfinite(sc.max_A2).all()


def test_translation_owns_the_time_and_needs_three_samples():
    with pytest.raises(BadParameter):
        generate_scenario("grim_reaper_product", time=5.0)
    for samples in (2, 1001):
        with pytest.raises(BadParameter):
            translation(grim_reaper_product, {},
                        lambda key, kind, default: samples
                        if key == "controls.samples" else default)


def test_generate_scenario_rejects_unknown_names_and_params():
    with pytest.raises(BadParameter):
        generate_scenario("moebius")
    with pytest.raises(BadParameter):
        generate_scenario("clifford_torus", twist=3)


def test_parameter_range_validation():
    with pytest.raises(BadParameter):
        grim_reaper_product(65, 16, x_max=1.6)  # tip angle past pi/2
    with pytest.raises(BadParameter):
        sphere_patch(24, 32, polar_margin=2.0)
    with pytest.raises(BadParameter):
        run_sphere_ode(-1.0)


def _readme_rows(first_cell: str) -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith(f"| {first_cell}")]


def test_readme_documents_exactly_the_scenario_table():
    (key_row,) = _readme_rows("`scenario.name`")
    named = key_row[1].split(" (")[0].replace("`", "").split(", ")
    assert sorted(named) == sorted(SCENARIOS)

    rows = {row[0]: row[1:] for row in _readme_rows("`")
            if row[0] in SCENARIOS}
    assert sorted(rows) == sorted(SCENARIOS)
    for name, entry in SCENARIOS.items():
        grid = generate_scenario(name).grid
        verify = entry.mode is mesh_flow and grid.periodic1 and grid.periodic2
        assert rows[name] == [entry.builder.__name__, entry.mode.__name__,
                              entry.kind, "yes" if verify else "no"]
