"""Initial surfaces and analytic trace builders for named scenarios.

Mesh scenarios return a SurfaceState ready for the flow engine.  Two
scenarios bypass the mesh integrator: the round sphere evolves by its exact
radius ODE, and the translating-soliton product moves by a rigid translation.
Each keeps one base state, mapped per sample by a scale or an offset
(:class:`~mcf4d.flow.MappedStates`), so it builds one geometry.
Graphs over a plane use periodic parameter axes with seam shifts, so the
whole machinery sees smooth periodic data without boundary stencils.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .errors import BadParameter
from .flow import (FlowTrace, MappedStates, RunControls, TraceScalars,
                   run_flow, scalar_row)
from .geometry import GeometryBundle
from .grid import ParamGrid, SurfaceState

TWO_PI = 2.0 * np.pi
MAX_TRACE_SAMPLES = 1000     # controls.samples: states of a translating trace
# Spread of a translating trace's node displacements, relative to its largest
# position coordinate, above which a sample is not a rigid translate.
TRANSLATE_RTOL = 1e-12


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
    """Trace of an exactly translating solution sampled at given times.

    The trace keeps the first sample alone, as its one base state: sample
    k is the first moved by its first node's displacement d_k
    (:class:`MappedStates` with scale 1 and offset -d_k, the positions
    first + d_k made on every read).  Its geometry is the same at every
    time, so the first sample's :class:`GeometryBundle` is the only one
    built: every scalar row is read off it, with each sample's own step and
    time, every |A|^2 field is its one ``norm_A2`` array, and
    :meth:`FlowTrace.bundle` of any sample is a view on it that keeps the
    sample's positions and time.  Every other sample is built, checked and
    dropped in turn; it must be a rigid translate of the first (same grid
    and seam shifts, one displacement 4-vector at every node to
    ``TRANSLATE_RTOL`` of the largest position coordinate) with finite
    positions, and one that is not raises BadParameter naming its time.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise BadParameter("need at least 2 strictly increasing sample times")
    n = times.size
    first = _sample(builder, times[0])
    geom = GeometryBundle(first)
    moves = np.zeros((n, 4))
    for k in range(1, n):
        moves[k] = _require_translate(_sample(builder, times[k]), first)
    row = scalar_row(0, geom)
    rows = [(k, float(t), *row[2:]) for k, t in enumerate(times)]
    return FlowTrace(states=MappedStates([first], [0] * n, np.ones(n),
                                         -moves, times),
                     state_steps=list(range(n)),
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason="reached_t_end", _bundles={0: geom})


def _sample(builder: Callable[[float], SurfaceState],
            t: float) -> SurfaceState:
    """The builder's state at time ``t``, which it carries as its time."""
    state = builder(float(t))
    state.time = float(t)
    return state


def _require_translate(state: SurfaceState, first: SurfaceState) -> np.ndarray:
    """Displacement of ``first``'s first node to ``state``'s.  Raise
    BadParameter unless ``state`` is ``first`` moved by one vector: the same
    grid and seam shifts, and node displacements that differ from the first
    node's by at most TRANSLATE_RTOL times the largest position coordinate
    of the two states.  A non-finite position fails the test, so a state
    that passes has finite positions, as ``first`` has."""
    where = f"the sample at t = {state.time}"
    if (state.grid != first.grid
            or not np.array_equal(state.shift1, first.shift1)
            or not np.array_equal(state.shift2, first.shift2)):
        raise BadParameter(f"{where} has another grid or other seam shifts "
                           f"than the sample at t = {first.time}")
    with np.errstate(over="ignore", invalid="ignore"):
        moved = state.positions - first.positions
        spread = np.abs(moved - moved[0, 0]).max()
        scale = max(np.abs(first.positions).max(),
                    np.abs(state.positions).max())
    if not spread <= TRANSLATE_RTOL * scale:          # NaN fails too
        raise BadParameter(
            f"{where} is not a rigid translate of the sample at t = "
            f"{first.time}: its node displacements spread by {spread:.3e}")
    return moved[0, 0]


def run_sphere_ode(radius: float = 1.0, controls: RunControls | None = None,
                   **patch) -> FlowTrace:
    """Round-sphere flow by the exact radius ODE dr/dt = -2/r.

    The scalar series is analytic: r(t)^2 = r0^2 - 4t, |A|^2 = 2/r^2,
    |H|^2 = 4/r^2, area of the tracked patch scaling like r^2.  Its
    min(max_steps + 1, 2048) samples from t = 0 to the stop are geometric in
    T - t, as adaptive steps are.  ``patch`` holds the other
    :func:`sphere_patch` parameters (n1, n2, polar_margin).
    Each stored state is the initial lat-long patch scaled by r/r0 about
    the origin, and the trace keeps that patch alone, as its one base
    state: its stored states (:class:`MappedStates` with scale r/r0 and no
    offset) scale it on every read.  The patch's :class:`GeometryBundle` is
    the only one built: the scalar rows are read off it, and
    :meth:`FlowTrace.bundle` of a stored state is a view on it whose fields
    carry their powers of r/r0.
    """
    controls = controls or RunControls()
    r0 = float(radius)
    if r0 <= 0:
        raise BadParameter("radius must be positive")
    t_sing = r0 * r0 / 4.0
    # Halt when |A|^2 = 2/r^2 crosses the blow-up threshold.
    t_stop = t_sing - 0.5 / controls.blowup_threshold
    if t_stop <= 0:
        raise BadParameter(
            f"blowup_threshold {controls.blowup_threshold} is not above the "
            f"initial |A|^2 = 2/r0^2 = {2.0 / (r0 * r0)}")
    reason = "blowup_detected"
    if controls.t_end < t_stop:
        t_stop = controls.t_end
        reason = "reached_t_end"
    n_samples = min(controls.max_steps + 1, 2048)
    if n_samples < 32:
        raise BadParameter(f"the radius ODE needs max_steps >= 31 (32 "
                           f"samples), got {controls.max_steps}")
    # A stop time on T (0.5 / threshold below half an ulp of T) gives
    # n_samples equal times, so it fails the check as a crowded end does.
    t = t_sing - np.geomspace(t_sing, (t_sing - t_stop) or t_sing, n_samples)
    if not np.all(np.diff(t) > 0):
        raise BadParameter(f"blowup_threshold {controls.blowup_threshold} "
                           f"puts the last samples within the rounding of t")
    r = np.sqrt(r0 * r0 - 4.0 * t)

    patch0 = sphere_patch(radius=r0, **patch)
    geom0 = GeometryBundle(patch0)
    _, _, area0, _, _, cos_a_min, cos_t_min, det_min0 = scalar_row(0, geom0)

    rows = [(k, t[k], area0 * (r[k] / r0) ** 2, 2.0 / r[k] ** 2, 4.0 / r[k] ** 2,
             cos_a_min, cos_t_min, det_min0 * (r[k] / r0) ** 4)
            for k in range(n_samples)]
    stored = list(range(0, n_samples, max(1, controls.stride)))
    if stored[-1] != n_samples - 1:
        stored.append(n_samples - 1)
    states = MappedStates([patch0], [0] * len(stored), r[stored] / r0,
                          None, t[stored])
    return FlowTrace(states=states, state_steps=stored,
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason=reason,
                     meta={"mode": "sphere_ode", "radius0": r0,
                           "singular_time": t_sing},
                     _bundles={0: geom0})


def _read_controls(read, names) -> RunControls:
    """RunControls from the ``controls.*`` keys ``names``; absent keys keep
    the RunControls defaults."""
    hints = get_type_hints(RunControls)
    return RunControls(**{
        name: read(f"controls.{name}", int if hints[name] is int else float,
                   getattr(RunControls, name))
        for name in names})


def mesh_flow(builder, params, read):
    """Trace mode: :func:`run_flow` under every RunControls field."""
    controls = _read_controls(read, [f.name for f in fields(RunControls)])
    return lambda: run_flow(builder(**params), controls)


def radius_ode(builder, params, read):
    """Trace mode: :func:`run_sphere_ode`, which builds its patch itself."""
    controls = _read_controls(
        read, ("t_end", "max_steps", "blowup_threshold", "stride"))
    return lambda: run_sphere_ode(controls=controls, **params)


def translation(builder, params, read):
    """Trace mode: :func:`translating_trace` of the builder, which takes the
    time, at ``controls.samples`` times from 0 to ``controls.t_end``."""
    t_end = read("controls.t_end", float, 0.1)
    if not np.isfinite(t_end) or t_end <= 0:
        raise BadParameter("the translation needs a finite positive "
                           "controls.t_end for its sample times")
    samples = read("controls.samples", int, 3)
    if not 3 <= samples <= MAX_TRACE_SAMPLES:
        raise BadParameter(f"controls.samples must lie in "
                           f"[3, {MAX_TRACE_SAMPLES}], got {samples}")
    times = np.linspace(0.0, t_end, samples)
    return lambda: translating_trace(
        lambda t: builder(time=t, **params), times)


class Scenario(NamedTuple):
    """Registry entry: initial-surface builder, trace mode and default kind.

    The mode is the function that makes a run's trace:
    ``mode(builder, params, read)`` reads and checks its ``controls.*`` keys
    through ``read(key, type, default)`` and returns a function that builds
    the trace from the builder and its parameters.  :func:`mesh_flow`
    integrates the mesh, :func:`radius_ode` samples the exact radius ODE and
    :func:`translation` the exact translation.  ``kind`` is the default
    ``run.kind`` of the theorem check.
    """

    builder: Callable[..., SurfaceState]
    mode: Callable[..., Callable[[], FlowTrace]]
    kind: str

    def params(self) -> dict[str, type]:
        """Parameter name -> type, read from the builder's signature, which
        also holds the one default of each parameter.  A builder's ``time``
        is not among them: the trace mode sets it."""
        hints = get_type_hints(self.builder)
        del hints["return"]
        hints.pop("time", None)
        return hints


SCENARIOS: dict[str, Scenario] = {
    "plane": Scenario(plane, mesh_flow, "lagrangian"),
    "complex_line": Scenario(complex_line, mesh_flow, "symplectic"),
    "sphere_ode": Scenario(sphere_patch, radius_ode, "symplectic"),
    "clifford_torus": Scenario(clifford_torus, mesh_flow, "symplectic"),
    "lagrangian_graph": Scenario(lagrangian_graph, mesh_flow, "lagrangian"),
    "symplectic_graph": Scenario(symplectic_graph, mesh_flow, "symplectic"),
    "grim_reaper_product": Scenario(grim_reaper_product, translation,
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

    It is the surface at t = 0 also where the trace mode is not
    :func:`mesh_flow`.
    """
    entry = find_scenario(name)
    allowed = entry.params()
    for key in params:
        if key not in allowed:
            raise BadParameter(
                f"scenario {name!r} does not take parameter {key!r}")
    return entry.builder(**params)
