"""Scenario construction checks.

Oracles: the closed-form parametrizations themselves, evaluated
independently here (node coordinates, translation speed, curve curvature
max |A|^2 = 1 at the tip of y = -log cos x, angle cos(theta(x)) = cos x).
"""

from pathlib import Path

import numpy as np
import pytest

from mcf4d.errors import BadParameter
from mcf4d.flow import RunControls
from mcf4d.geometry import build_geometry
from mcf4d.scenarios import (SCENARIOS, clifford_torus,
                             generate_scenario, grim_reaper_product,
                             lagrangian_graph, run_sphere_ode, sphere_patch,
                             symplectic_graph, translating_trace)


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

    traces = {"flow": "mesh flow", "sphere_ode": "exact radius ODE",
              "translating": "exact translation"}
    rows = {row[0]: row[1:] for row in _readme_rows("`")
            if row[0] in SCENARIOS}
    assert sorted(rows) == sorted(SCENARIOS)
    for name, entry in SCENARIOS.items():
        grid = generate_scenario(name).grid
        verify = entry.mode == "flow" and grid.periodic1 and grid.periodic2
        assert rows[name] == [entry.builder.__name__, traces[entry.mode],
                              entry.kind, "yes" if verify else "no"]
