"""Initial surfaces and analytic trace builders for named scenarios.

Mesh scenarios return a SurfaceState ready for the flow engine.  Two
scenarios bypass the mesh integrator: the round sphere evolves by its exact
radius ODE, and the translating-soliton product moves by a rigid translation.
Graphs over a plane use periodic parameter axes with seam shifts, so the
whole machinery sees smooth periodic data without boundary stencils.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .errors import BadParameter, InsufficientBlowup
from .flow import FlowTrace, RunControls, TraceScalars, scalar_row
from .geometry import GeometryBundle
from .grid import ParamGrid, SurfaceState

TWO_PI = 2.0 * np.pi


def plane(n1: int = 64, n2: int = 64, halfwidth: float = 3.0,
          offset: float = 0.0) -> SurfaceState:
    """Flat patch (u, d, v, 0), |u|,|v| <= halfwidth, at height d above 0."""
    h1 = 2.0 * halfwidth / (n1 - 1)
    h2 = 2.0 * halfwidth / (n2 - 1)
    grid = ParamGrid(n1, n2, h1, h2, False, False)
    u = -halfwidth + grid.axis_coords(0)
    v = -halfwidth + grid.axis_coords(1)
    pos = np.zeros((n1, n2, 4))
    pos[..., 0] = u[:, None]
    pos[..., 1] = offset
    pos[..., 2] = v[None, :]
    return SurfaceState(grid, pos)


def complex_line(n1: int = 64, n2: int = 64, halfwidth: float = 3.0) -> SurfaceState:
    """Patch of the complex line z2 = 0: positions (u, v, 0, 0), the
    :func:`plane` patch with its second and third coordinates swapped."""
    flat = plane(n1, n2, halfwidth)
    return SurfaceState(flat.grid, flat.positions[..., [0, 2, 1, 3]])


def sphere_patch(n1: int = 24, n2: int = 32, radius: float = 1.0,
                 polar_margin: float = 0.6) -> SurfaceState:
    """Lat-long patch of a round sphere in the hyperplane y2 = 0.

    The polar angle stays in [margin, pi - margin] (clamped axis); the
    azimuth is periodic.
    """
    if not 0 < polar_margin < np.pi / 2:
        raise BadParameter("polar margin must sit in (0, pi/2)")
    span = np.pi - 2.0 * polar_margin
    grid = ParamGrid(n1, n2, span / (n1 - 1), TWO_PI / n2, False, True)
    theta = polar_margin + grid.axis_coords(0)
    phi = grid.axis_coords(1)
    pos = np.zeros((n1, n2, 4))
    pos[..., 0] = radius * np.sin(theta)[:, None] * np.cos(phi)[None, :]
    pos[..., 1] = radius * np.sin(theta)[:, None] * np.sin(phi)[None, :]
    pos[..., 2] = radius * np.cos(theta)[:, None] * np.ones_like(phi)[None, :]
    return SurfaceState(grid, pos)


def clifford_torus(n1: int = 64, n2: int = 64, radius: float = 1.0) -> SurfaceState:
    """Product of two circles of equal radius, node (0,0) at (r, 0, r, 0)."""
    grid = ParamGrid(n1, n2, TWO_PI / n1, TWO_PI / n2, True, True)
    phi = grid.axis_coords(0)
    psi = grid.axis_coords(1)
    pos = np.zeros((n1, n2, 4))
    pos[..., 0] = radius * np.cos(phi)[:, None]
    pos[..., 1] = radius * np.sin(phi)[:, None]
    pos[..., 2] = radius * np.cos(psi)[None, :]
    pos[..., 3] = radius * np.sin(psi)[None, :]
    return SurfaceState(grid, pos)


def lagrangian_graph(n1: int = 64, n2: int = 64,
                     amplitude: float = 0.1) -> SurfaceState:
    """Graph (u, w_u, v, w_v) of the potential w = amplitude sin(u) sin(v).

    The symplectic form pulls back to w_uv - w_vu = 0, so the surface is
    exactly Lagrangian; its angle is arctan(l1) + arctan(l2) for the
    eigenvalues of the potential Hessian.
    """
    grid = ParamGrid(n1, n2, TWO_PI / n1, TWO_PI / n2, True, True)
    u = grid.axis_coords(0)[:, None]
    v = grid.axis_coords(1)[None, :]
    pos = np.empty((n1, n2, 4))
    pos[..., 0] = u * np.ones_like(v)
    pos[..., 1] = amplitude * np.cos(u) * np.sin(v)
    pos[..., 2] = v * np.ones_like(u)
    pos[..., 3] = amplitude * np.sin(u) * np.cos(v)
    return SurfaceState(grid, pos,
                        shift1=np.array([TWO_PI, 0.0, 0.0, 0.0]),
                        shift2=np.array([0.0, 0.0, TWO_PI, 0.0]))


def symplectic_graph(n1: int = 64, n2: int = 64, eps: float = 0.1) -> SurfaceState:
    """Small graph over the complex line: (u, v, eps sin(u), eps cos(v))."""
    grid = ParamGrid(n1, n2, TWO_PI / n1, TWO_PI / n2, True, True)
    u = grid.axis_coords(0)[:, None]
    v = grid.axis_coords(1)[None, :]
    pos = np.empty((n1, n2, 4))
    pos[..., 0] = u * np.ones_like(v)
    pos[..., 1] = v * np.ones_like(u)
    pos[..., 2] = eps * np.sin(u) * np.ones_like(v)
    pos[..., 3] = eps * np.cos(v) * np.ones_like(u)
    return SurfaceState(grid, pos,
                        shift1=np.array([TWO_PI, 0.0, 0.0, 0.0]),
                        shift2=np.array([0.0, TWO_PI, 0.0, 0.0]))


def grim_reaper_product(n1: int = 257, n2: int = 16, x_max: float = 1.4,
                        line_length: float = 4.0, time: float = 0.0) -> SurfaceState:
    """Translating curve y = -log cos x (|x| <= x_max) times a straight line.

    The curve slides in the y1 direction with unit speed; the line factor is
    represented periodically with a seam shift, so only the x axis is
    clamped.  Requires x_max < pi/2.
    """
    if not 0 < x_max < np.pi / 2:
        raise BadParameter("x_max must sit in (0, pi/2)")
    grid = ParamGrid(n1, n2, 2.0 * x_max / (n1 - 1), line_length / n2, False, True)
    x = -x_max + grid.axis_coords(0)
    s = grid.axis_coords(1)
    pos = np.zeros((n1, n2, 4))
    pos[..., 0] = x[:, None]
    pos[..., 1] = (-np.log(np.cos(x)) + time)[:, None]
    pos[..., 2] = s[None, :]
    return SurfaceState(grid, pos, time=time,
                        shift2=np.array([0.0, 0.0, line_length, 0.0]))


def translating_trace(builder: Callable[[float], SurfaceState],
                      times: np.ndarray) -> FlowTrace:
    """Trace of an exactly translating solution sampled at given times."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise BadParameter("need at least 2 strictly increasing sample times")
    states = []
    for t in times:
        state = builder(float(t))
        state.time = float(t)
        states.append(state)
    rows, a2_fields = [], {}
    for k, state in enumerate(states):
        geom = GeometryBundle(state)
        rows.append(scalar_row(k, geom))
        a2_fields[k] = geom.norm_A2
    return FlowTrace(states=states, state_steps=list(range(len(states))),
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason="reached_t_end", _a2_fields=a2_fields)


def run_sphere_ode(radius: float = 1.0, controls: RunControls | None = None,
                   **patch) -> FlowTrace:
    """Round-sphere flow by the exact radius ODE dr/dt = -2/r.

    The scalar series is analytic: r(t)^2 = r0^2 - 4t, |A|^2 = 2/r^2,
    |H|^2 = 4/r^2, area of the tracked patch scaling like r^2.  Stored
    states are lat-long patches materialized at the sampled radii;
    ``patch`` holds the other :func:`sphere_patch` parameters (n1, n2,
    polar_margin).
    """
    controls = controls or RunControls()
    r0 = float(radius)
    if r0 <= 0:
        raise BadParameter("radius must be positive")
    t_sing = r0 * r0 / 4.0
    # Halt when |A|^2 = 2/r^2 crosses the blow-up threshold.
    t_stop = t_sing - 0.5 / controls.blowup_threshold
    if t_stop <= 0:
        raise InsufficientBlowup(
            "curvature already above the halt threshold at t = 0")
    reason = "blowup_detected"
    if controls.t_end < t_stop:
        t_stop = controls.t_end
        reason = "reached_t_end"
    n_samples = min(controls.max_steps + 1, 2048)
    if n_samples < 32:
        raise InsufficientBlowup("too few samples allowed for the radius ODE")
    t = np.linspace(0.0, t_stop, n_samples)
    r = np.sqrt(r0 * r0 - 4.0 * t)

    patch0 = sphere_patch(radius=r0, **patch)
    _, _, area0, _, _, cos_a_min, cos_t_min, det_min0 = scalar_row(
        0, GeometryBundle(patch0))

    rows = [(k, t[k], area0 * (r[k] / r0) ** 2, 2.0 / r[k] ** 2, 4.0 / r[k] ** 2,
             cos_a_min, cos_t_min, det_min0 * (r[k] / r0) ** 4)
            for k in range(n_samples)]
    stored = list(range(0, n_samples, max(1, controls.stride)))
    if stored[-1] != n_samples - 1:
        stored.append(n_samples - 1)
    states = []
    for k in stored:
        scale = r[k] / r0
        states.append(SurfaceState(patch0.grid, patch0.positions * scale, float(t[k])))
    return FlowTrace(states=states, state_steps=stored,
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason=reason,
                     meta={"mode": "sphere_ode", "radius0": r0,
                           "singular_time": t_sing})


class Scenario(NamedTuple):
    """Registry entry: initial-surface builder, trace mode and default kind.

    The mode says how a run makes its trace: ``flow`` integrates the mesh,
    ``sphere_ode`` samples the exact radius ODE (:func:`run_sphere_ode`),
    ``translating`` samples the exact translation (the builder takes the
    time).  ``kind`` is the default ``run.kind`` of the theorem check.
    """

    builder: Callable[..., SurfaceState]
    mode: str
    kind: str

    def params(self) -> dict[str, type]:
        """Parameter name -> type, read from the builder's signature, which
        also holds the one default of each parameter."""
        hints = get_type_hints(self.builder)
        del hints["return"]
        return hints


SCENARIOS: dict[str, Scenario] = {
    "plane": Scenario(plane, "flow", "lagrangian"),
    "complex_line": Scenario(complex_line, "flow", "symplectic"),
    "sphere_ode": Scenario(sphere_patch, "sphere_ode", "symplectic"),
    "clifford_torus": Scenario(clifford_torus, "flow", "symplectic"),
    "lagrangian_graph": Scenario(lagrangian_graph, "flow", "lagrangian"),
    "symplectic_graph": Scenario(symplectic_graph, "flow", "symplectic"),
    "grim_reaper_product": Scenario(grim_reaper_product, "translating",
                                    "lagrangian"),
}


def find_scenario(name: str) -> Scenario:
    """Registry entry of a scenario name."""
    if name not in SCENARIOS:
        raise BadParameter(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def generate_scenario(name: str, **params) -> SurfaceState:
    """Initial surface of a named scenario with keyword parameters.

    ``sphere_ode`` returns the lat-long patch at t = 0; its evolution runs
    through :func:`run_sphere_ode` rather than the mesh integrator.
    """
    entry = find_scenario(name)
    allowed = entry.params()
    for key in params:
        if key not in allowed:
            raise BadParameter(
                f"scenario {name!r} does not take parameter {key!r}")
    return entry.builder(**params)
