"""Mean curvature flow integrator and blow-up time/rate analysis.

The surface moves by dF/dt = H with classical RK4 in time; every stage
velocity is the mean curvature projected onto the normal plane, so the
parametrization never drifts tangentially and evolution identities for
node-attached fields hold in their normal-gauge form.

Each accepted step evaluates the position derivatives and the frame-free
curvature kernel (:class:`~mcf4d.geometry.Curvature`) once; that one
evaluation feeds the step's scalar row, its CFL step size, the first RK4
stage, and the stored |A|^2 field when the state is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParameter, DegenerateMetric, InsufficientBlowup,
                     Mcf4dError, NonFinite, ShortTrace)
from .geometry import Curvature, GeometryBundle, build_geometry, plane_angles
from .grid import ParamGrid, SurfaceState, position_derivatives

CFL_DENOMINATOR = 8.0

SCALAR_COLUMNS = ("step", "t", "area", "max_A2", "max_H2",
                  "min_cos_alpha", "min_cos_theta", "min_detg")


@dataclass
class RunControls:
    """Knobs of a flow run; ``dt`` fixes the step size, else CFL adapts it."""

    t_end: float = np.inf
    max_steps: int = 100000
    blowup_threshold: float = 1e4
    stride: int = 1
    safety: float = 0.9
    dt: float | None = None

    def __post_init__(self):
        if self.stride < 1:
            raise BadParameter(f"stride must be at least 1, got {self.stride}")
        if not 0.0 < self.safety <= 1.0:
            raise BadParameter(f"safety must lie in (0, 1], got {self.safety}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise BadParameter(f"dt must be finite and positive, got {self.dt}")
        if np.isnan(self.t_end):
            raise BadParameter("t_end must not be NaN")
        if self.max_steps < 0:
            raise BadParameter(
                f"max_steps must be non-negative, got {self.max_steps}")


@dataclass
class TraceScalars:
    """Per accepted step diagnostics, one numpy array per column."""

    step: np.ndarray
    t: np.ndarray
    area: np.ndarray
    max_A2: np.ndarray
    max_H2: np.ndarray
    min_cos_alpha: np.ndarray
    min_cos_theta: np.ndarray
    min_detg: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "TraceScalars":
        cols = np.array(rows, dtype=float).T if rows else np.zeros((8, 0))
        return cls(step=cols[0].astype(int), t=cols[1], area=cols[2],
                   max_A2=cols[3], max_H2=cols[4], min_cos_alpha=cols[5],
                   min_cos_theta=cols[6], min_detg=cols[7])

    def __len__(self):
        return self.t.size


@dataclass
class FlowTrace:
    """Stored states (possibly thinned by stride) plus dense scalar series."""

    states: list[SurfaceState]
    state_steps: list[int]
    scalars: TraceScalars
    termination_reason: str
    meta: dict = field(default_factory=dict)
    _bundles: dict = field(default_factory=dict, repr=False)
    _a2_fields: dict = field(default_factory=dict, repr=False)

    @property
    def times(self) -> np.ndarray:
        """Times of the stored states."""
        return np.array([s.time for s in self.states])

    def bundle(self, index: int, need_j: bool = False) -> GeometryBundle:
        """Geometry of stored state ``index``, memoized with small eviction."""
        cached = self._bundles.get(index)
        if cached is None or (need_j and cached.nabla_bar_j2 is None):
            cached = build_geometry(self.states[index], compute_j=need_j)
            self._bundles[index] = cached
            while len(self._bundles) > 12:
                self._bundles.pop(next(iter(self._bundles)))
        return cached

    def curvature_a2(self, index: int) -> np.ndarray:
        """|A|^2 field of stored state ``index``, cached.  run_flow and
        translating_trace fill the cache as they store states; any other
        state builds a bundle on first use."""
        cached = self._a2_fields.get(index)
        if cached is None:
            cached = self.bundle(index).norm_A2
            self._a2_fields[index] = cached
        return cached

    def parabolic(self, lam: float, t0: float = 0.0,
                  offset: np.ndarray | None = None) -> "FlowTrace":
        """Parabolic rescaling F -> lam (F - offset), t -> lam^2 (t - t0).

        Stored states and scalars both move: area scales by lam^2, the
        curvatures by lam^-2, det g by lam^4; angles and steps are
        invariant.  The new trace copies ``meta`` and starts with empty
        caches.
        """
        states = [s.transformed(scale=lam, offset=offset,
                                time=lam * lam * (s.time - t0))
                  for s in self.states]
        sc = self.scalars
        scalars = TraceScalars(
            step=sc.step.copy(), t=lam * lam * (sc.t - t0),
            area=lam * lam * sc.area, max_A2=sc.max_A2 / lam ** 2,
            max_H2=sc.max_H2 / lam ** 2,
            min_cos_alpha=sc.min_cos_alpha.copy(),
            min_cos_theta=sc.min_cos_theta.copy(),
            min_detg=lam ** 4 * sc.min_detg)
        return FlowTrace(states=states, state_steps=list(self.state_steps),
                         scalars=scalars,
                         termination_reason=self.termination_reason,
                         meta=dict(self.meta))


def scalar_row(step: int, state: SurfaceState, curv: Curvature) -> tuple:
    """Diagnostics row of ``state`` (see SCALAR_COLUMNS) from its curvature.

    The angles need no frame: e1 ^ e2 = F_u ^ F_v / sqrt(det g) for every
    oriented orthonormal tangent frame.
    """
    area_element = np.sqrt(curv.det_g)
    cos_alpha, unit, _, _ = plane_angles(curv.f_u, curv.f_v, area_element)
    area = float(np.sum(area_element * state.grid.node_weight()))
    return (step, state.time, area,
            float(curv.norm_A2.max()), float(curv.norm_H2.max()),
            float(cos_alpha.min()), float(unit.real.min()),
            float(curv.det_g.min()))


def cfl_dt(curv: Curvature, grid: ParamGrid, safety: float = 0.9) -> float:
    """Parabolic step bound: safety * min(eig_min(g)) * min(spacing)^2 / 8."""
    half_tr = 0.5 * (curv.g11 + curv.g22)
    radius = np.sqrt(0.25 * (curv.g11 - curv.g22) ** 2 + curv.g12 ** 2)
    eig_min = float(np.min(half_tr - radius))
    h_min = min(grid.spacing1, grid.spacing2)
    return safety * eig_min * h_min * h_min / CFL_DENOMINATOR


def state_curvature(state: SurfaceState) -> Curvature:
    """Curvature kernel of a finite state: derivatives evaluated once."""
    state.require_finite()
    return Curvature(*position_derivatives(state))


def velocity(state: SurfaceState,
             curv: Curvature | None = None) -> np.ndarray:
    """Mean curvature vector field H of ``state``; ``curv``, when given, is
    the state's kernel already evaluated and is read, not recomputed."""
    if curv is None:
        curv = Curvature(*position_derivatives(state))
    return curv.mean_curvature


def step(state: SurfaceState, dt: float, curv: Curvature) -> SurfaceState:
    """One explicit RK4 step of dF/dt = H; ``curv`` is the kernel of
    ``state`` and supplies the first stage."""

    def advanced(base, scale, k):
        return SurfaceState(state.grid, base.positions + scale * k, state.time,
                            state.shift1, state.shift2)

    k1 = velocity(state, curv)
    k2 = velocity(advanced(state, 0.5 * dt, k1))
    k3 = velocity(advanced(state, 0.5 * dt, k2))
    k4 = velocity(advanced(state, dt, k3))
    new_pos = state.positions + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = SurfaceState(state.grid, new_pos, state.time + dt,
                       state.shift1.copy(), state.shift2.copy())
    out.require_finite()
    return out


def run_flow(initial: SurfaceState, controls: RunControls) -> FlowTrace:
    """Advance the flow until t_end, blow-up, mesh failure, or step limit.

    Scalars are recorded every accepted step; states every ``stride`` steps
    (first and final always included), each with its |A|^2 field cached in
    the trace.  A state whose metric degenerates or turns non-finite after
    step 0 ends the run with ``degenerate_mesh`` and is not kept.
    """
    state = initial.copy()
    rows: list[tuple] = []
    states: list[SurfaceState] = []
    state_steps: list[int] = []
    a2_fields: dict[int, np.ndarray] = {}
    reason = None
    k = 0
    while reason is None:
        try:
            curv = state_curvature(state)
            row = scalar_row(k, state, curv)
        except (DegenerateMetric, NonFinite):
            if k == 0:
                raise
            reason = "degenerate_mesh"
            break
        rows.append(row)
        if row[3] > controls.blowup_threshold:
            reason = "blowup_detected"
        elif state.time >= controls.t_end * (1.0 - 1e-14):
            reason = "reached_t_end"
        elif k >= controls.max_steps:
            reason = "step_limit"
        else:
            dt = controls.dt if controls.dt is not None else cfl_dt(
                curv, state.grid, controls.safety)
            if np.isfinite(controls.t_end):
                dt = min(dt, controls.t_end - state.time)
            if dt <= 0:
                raise Mcf4dError(f"non-positive step size {dt}")
            try:
                following = step(state, dt, curv)
            except (DegenerateMetric, NonFinite):
                reason = "degenerate_mesh"
        if k % controls.stride == 0 or reason is not None:
            a2_fields[len(states)] = curv.norm_A2
            states.append(state)
            state_steps.append(k)
        if reason is None:
            state = following
            k += 1
    return FlowTrace(states=states, state_steps=state_steps,
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason=reason, _a2_fields=a2_fields)


@dataclass
class SingularityVerdict:
    """Outcome of the blow-up rate fit max|A|^2 ~ c / (T - t)."""

    singular_time: float
    rate_coefficient: float
    type_i_sup: float
    oscillation: float
    growth_factor: float
    classification: str          # TypeI | TypeII | Undetermined
    window: tuple[int, int]      # sample index range [start, stop)


def estimate_singular_time(trace: FlowTrace,
                           min_growth: float = 10.0) -> SingularityVerdict:
    """Fit the singular time from the scalar series of a blow-up trace.

    Fits 1/max|A|^2 as an affine function of t over the last quarter of the
    samples and reads the root.  Classification: TypeI when (T - t) max|A|^2
    oscillates under 20% over the window, TypeII when it grows monotonically
    by more than 5x, else Undetermined.
    """
    if trace.termination_reason != "blowup_detected":
        raise InsufficientBlowup(
            f"trace ended with {trace.termination_reason!r}, not blowup_detected")
    t = trace.scalars.t
    a2 = trace.scalars.max_A2
    grown = a2 >= min_growth * a2[0]
    if int(np.count_nonzero(grown)) < 20:
        raise InsufficientBlowup("fewer than 20 samples above 10x initial curvature")
    n = t.size
    start = max(0, n - max(5, n // 4))
    if n - start < 5:
        raise ShortTrace("need at least 5 samples in the fit window")
    tw = t[start:]
    yw = 1.0 / a2[start:]
    slope, intercept = np.polyfit(tw, yw, 1)
    if slope >= 0:
        raise InsufficientBlowup("reciprocal curvature is not decreasing")
    t_hat = -intercept / slope
    rate = -1.0 / slope
    u = (t_hat - tw) * a2[start:]
    sup = float(np.max(u))
    osc = float((np.max(u) - np.min(u)) / np.mean(u))
    growth = float(u[-1] / u[0])
    monotone_up = bool(np.all(np.diff(u) > 0))
    if osc < 0.2:
        kind = "TypeI"
    elif monotone_up and growth > 5.0:
        kind = "TypeII"
    else:
        kind = "Undetermined"
    return SingularityVerdict(singular_time=float(t_hat), rate_coefficient=float(rate),
                              type_i_sup=sup, oscillation=osc, growth_factor=growth,
                              classification=kind, window=(start, n))
