"""Mean curvature flow integrator and blow-up time/rate analysis.

The surface moves by dF/dt = H; every stage velocity is the mean curvature
projected onto the normal plane, so the parametrization never drifts
tangentially and evolution identities for node-attached fields hold in
their normal-gauge form.

Two explicit integrators share that velocity.  A run with a fixed
``controls.dt`` takes classical RK4 steps (:func:`step`).  An adaptive run
takes damped second-order Runge-Kutta-Chebyshev steps (:func:`rkc_step`;
Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88 (1998) 315-326):
the step is set by accuracy, dt = RKC_ACCURACY / max|A|^2, and the stage
count s by stability, since s stages are stable on a real interval of
about 0.65 s^2 while the parabolic CFL bound (:func:`cfl_dt`) tracks the
stiffness of the discrete Laplacian.

Each accepted step builds the state's geometry
(:class:`~mcf4d.geometry.GeometryBundle`) once; that one object feeds the
step's scalar row, its CFL bound, the first stage, and the stored |A|^2
field when the state is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (BadParameter, DegenerateMetric, InsufficientBlowup,
                     Mcf4dError, NonFinite, ShortTrace)
from .geometry import GeometryBundle, build_geometry
from .grid import SurfaceState

CFL_SAFETY = 0.9     # margin below the parabolic stability bound
CFL_DENOMINATOR = 8.0
RKC_ACCURACY = 0.02  # adaptive dt = RKC_ACCURACY / max|A|^2
# An s-stage RKC step with damping RKC_DAMPING is stable up to
# RKC_STABILITY * (s^2 - 1) CFL steps; the factor includes a 0.8 safety.
RKC_DAMPING = 2.0 / 13.0
RKC_STABILITY = 0.435
# Stage cap; dt is clamped to what it keeps stable (43 CFL steps).  A flat
# surface asks for an unbounded dt, and max|A|^2 does not set the time scale
# of a low-amplitude graph.  Square tori up to 128^2 need at most 10 stages.
RKC_MAX_STAGES = 10
MIN_GROWTH = 10.0    # growth of max|A|^2 over its first value a fit needs

SCALAR_COLUMNS = ("step", "t", "area", "max_A2", "max_H2",
                  "min_cos_alpha", "min_cos_theta", "min_detg")


@dataclass
class RunControls:
    """Knobs of a flow run.  ``dt`` fixes the step size of RK4 steps;
    without it RKC steps adapt to the curvature, with a stage count set by
    the CFL bound (:func:`cfl_dt`)."""

    t_end: float = np.inf
    max_steps: int = 100000
    blowup_threshold: float = 1e4
    stride: int = 1
    dt: float | None = None

    def __post_init__(self):
        if self.stride < 1:
            raise BadParameter(f"stride must be at least 1, got {self.stride}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise BadParameter(f"dt must be finite and positive, got {self.dt}")
        if np.isnan(self.t_end):
            raise BadParameter("t_end must not be NaN")
        if not self.blowup_threshold > 0:
            raise BadParameter(f"blowup_threshold must be positive, got "
                               f"{self.blowup_threshold}")
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
        """Geometry of stored state ``index``, memoized with small eviction.
        ``need_j`` has no effect: every bundle gives |grad J|^2 when read."""
        cached = self._bundles.get(index)
        if cached is None:
            cached = build_geometry(self.states[index])
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


def scalar_row(step: int, geom: GeometryBundle) -> tuple:
    """Diagnostics row (see SCALAR_COLUMNS) of the state ``geom`` was
    built from."""
    return (step, geom.time, float(np.sum(geom.quadrature_weights())),
            float(geom.norm_A2.max()), float(geom.norm_H2.max()),
            float(geom.cos_alpha.min()), float(geom.cos_theta.min()),
            float(geom.det_g.min()))


def cfl_dt(geom: GeometryBundle) -> float:
    """Parabolic step bound CFL_SAFETY * min eig(g) * min(spacing)^2 / 8."""
    half_tr = 0.5 * (geom.g11 + geom.g22)
    radius = np.sqrt(0.25 * (geom.g11 - geom.g22) ** 2 + geom.g12 ** 2)
    eig_min = float(np.min(half_tr - radius))
    h_min = min(geom.grid.spacing1, geom.grid.spacing2)
    return CFL_SAFETY * eig_min * h_min * h_min / CFL_DENOMINATOR


def velocity(state: SurfaceState,
             geom: GeometryBundle | None = None) -> np.ndarray:
    """Mean curvature vector field H of ``state``; ``geom``, when given, is
    the state's geometry already built and is read, not recomputed."""
    if geom is None:
        geom = GeometryBundle(state)
    return geom.mean_curvature


def step(state: SurfaceState, dt: float, geom: GeometryBundle) -> SurfaceState:
    """One explicit RK4 step of dF/dt = H, the step of fixed-dt runs;
    ``geom`` is the geometry of ``state`` and supplies the first stage."""

    def advanced(base, scale, k):
        return SurfaceState(state.grid, base.positions + scale * k, state.time,
                            state.shift1, state.shift2)

    k1 = velocity(state, geom)
    k2 = velocity(advanced(state, 0.5 * dt, k1))
    k3 = velocity(advanced(state, 0.5 * dt, k2))
    k4 = velocity(advanced(state, dt, k3))
    new_pos = state.positions + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = SurfaceState(state.grid, new_pos, state.time + dt,
                       state.shift1.copy(), state.shift2.copy())
    out.require_finite()
    return out


@lru_cache(maxsize=RKC_MAX_STAGES)
def _rkc_coefficients(stages: int) -> tuple:
    """(mu~_1, rows) of the damped RKC scheme, each row (mu_j, nu_j, mu~_j,
    gamma~_j) for j = 2..stages, from the Chebyshev polynomials T_j and
    their first two derivatives at w0 = 1 + RKC_DAMPING / stages^2."""
    w0 = 1.0 + RKC_DAMPING / stages ** 2
    t, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]    # T_j, T_j', T_j''
    for j in range(2, stages + 1):
        t.append(2.0 * w0 * t[j - 1] - t[j - 2])
        t1.append(2.0 * t[j - 1] + 2.0 * w0 * t1[j - 1] - t1[j - 2])
        t2.append(4.0 * t1[j - 1] + 2.0 * w0 * t2[j - 1] - t2[j - 2])
    w1 = t1[stages] / t2[stages]
    b = [t2[j] / t1[j] ** 2 if j >= 2 else 0.0 for j in range(stages + 1)]
    b[0] = b[1] = b[2]
    rows = []
    for j in range(2, stages + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        rows.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t,
                     -(1.0 - b[j - 1] * t[j - 1]) * mu_t))
    return b[1] * w1, tuple(rows)


def rkc_dt(max_a2: float, cfl: float) -> float:
    """Adaptive step: RKC_ACCURACY / max|A|^2, clamped to the stable step of
    RKC_MAX_STAGES stages over the CFL bound ``cfl`` (so a flat state,
    max|A|^2 = 0, gets the clamp)."""
    limit = RKC_STABILITY * cfl * (RKC_MAX_STAGES ** 2 - 1)
    return RKC_ACCURACY / max_a2 if RKC_ACCURACY < max_a2 * limit else limit


def rkc_stages(dt: float, cfl: float) -> int:
    """Fewest stages, at least 2 and at most RKC_MAX_STAGES, whose RKC step
    is stable at ``dt`` given the CFL bound ``cfl``."""
    s = math.ceil(math.sqrt(dt / (RKC_STABILITY * cfl) + 1.0))
    return min(max(2, s), RKC_MAX_STAGES)


def rkc_step(state: SurfaceState, dt: float, geom: GeometryBundle,
             stages: int) -> SurfaceState:
    """One damped second-order Runge-Kutta-Chebyshev step of dF/dt = H with
    ``stages`` velocity evaluations, the step of adaptive runs; ``geom`` is
    the geometry of ``state`` and supplies the first stage."""
    mu1, rows = _rkc_coefficients(stages)
    y0 = state.positions
    f0 = velocity(state, geom)
    prev, cur = y0, y0 + (mu1 * dt) * f0
    for mu, nu, mu_t, gamma_t in rows:
        f = velocity(SurfaceState(state.grid, cur, state.time, state.shift1,
                                  state.shift2))
        prev, cur = cur, ((1.0 - mu - nu) * y0 + mu * cur + nu * prev
                          + (mu_t * dt) * f + (gamma_t * dt) * f0)
    out = SurfaceState(state.grid, cur, state.time + dt,
                       state.shift1.copy(), state.shift2.copy())
    out.require_finite()
    return out


def run_flow(initial: SurfaceState, controls: RunControls) -> FlowTrace:
    """Advance the flow until t_end, blow-up, mesh failure, or step limit.

    With ``controls.dt`` set every step is an RK4 step of that size (the
    last one shortened to land on t_end); otherwise every step is an RKC
    step of size :func:`rkc_dt` with :func:`rkc_stages` stages.  Scalars are
    recorded every accepted step; states every ``stride`` steps (first and
    final always included), each with its |A|^2 field cached in the trace.
    A state whose metric degenerates or turns non-finite after step 0 ends
    the run with ``degenerate_mesh`` and is not kept.

    ``meta["run_stats"]`` tells how the run went, in the run's own time
    units: accepted ``steps``, the ``velocity_evaluations`` of those steps,
    their ``max_stages``, and ``dt_min``/``dt_max`` (None without a step).
    """
    state = initial.copy()
    rows: list[tuple] = []
    states: list[SurfaceState] = []
    state_steps: list[int] = []
    a2_fields: dict[int, np.ndarray] = {}
    taken: list[tuple[float, int]] = []   # (dt, stages) per accepted step
    reason = None
    k = 0
    while reason is None:
        try:
            geom = GeometryBundle(state)
            row = scalar_row(k, geom)
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
            time_left = controls.t_end - state.time
            if controls.dt is None:
                cfl = cfl_dt(geom)
                dt = min(rkc_dt(row[3], cfl), time_left)
                stages = rkc_stages(dt, cfl)
            else:
                dt = min(controls.dt, time_left)
                stages = 4
            if dt <= 0:
                raise Mcf4dError(f"non-positive step size {dt}")
            try:
                following = (step(state, dt, geom) if controls.dt is not None
                             else rkc_step(state, dt, geom, stages))
            except (DegenerateMetric, NonFinite):
                reason = "degenerate_mesh"
        if k % controls.stride == 0 or reason is not None:
            a2_fields[len(states)] = geom.norm_A2
            states.append(state)
            state_steps.append(k)
        if reason is None:
            taken.append((dt, stages))
            state = following
            k += 1
    dts = [dt for dt, _ in taken]
    stats = {"steps": k,
             "velocity_evaluations": sum(s for _, s in taken),
             "max_stages": max((s for _, s in taken), default=0),
             "dt_min": min(dts, default=None),
             "dt_max": max(dts, default=None)}
    return FlowTrace(states=states, state_steps=state_steps,
                     scalars=TraceScalars.from_rows(rows),
                     termination_reason=reason, meta={"run_stats": stats},
                     _a2_fields=a2_fields)


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


def estimate_singular_time(trace: FlowTrace) -> SingularityVerdict:
    """Fit the singular time from the scalar series of a blow-up trace.

    Fits 1/max|A|^2 as an affine function of t over the last quarter of the
    samples and reads the root.  Classification: TypeI when the root lies
    after the window's last time and (T - t) max|A|^2 oscillates under 20%
    over the window, TypeII when it grows monotonically by more than 5x,
    else Undetermined.  A root inside the window means the affine fit does
    not hold, so it is never TypeI.  The fit needs at least 20 samples with
    max|A|^2 at least MIN_GROWTH times its first value.
    """
    if trace.termination_reason != "blowup_detected":
        raise InsufficientBlowup(
            f"trace ended with {trace.termination_reason!r}, not blowup_detected")
    t = trace.scalars.t
    a2 = trace.scalars.max_A2
    grown = a2 >= MIN_GROWTH * a2[0]
    if int(np.count_nonzero(grown)) < 20:
        raise InsufficientBlowup(
            f"fewer than 20 samples above {MIN_GROWTH:g}x initial curvature")
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
    if osc < 0.2 and t_hat > tw[-1]:
        kind = "TypeI"
    elif monotone_up and growth > 5.0:
        kind = "TypeII"
    else:
        kind = "Undetermined"
    return SingularityVerdict(singular_time=float(t_hat), rate_coefficient=float(rate),
                              type_i_sup=sup, oscillation=osc, growth_factor=growth,
                              classification=kind, window=(start, n))
