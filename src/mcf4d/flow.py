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

Inside a step the positions are component-major, C-contiguous (4, n1, n2),
the layout of every derivative and of H: a step copies the state's
positions into it once, forms every stage combination there, and evaluates
each stage through :func:`velocity` on a state whose positions are the
node-major view of the stage array.  Stored states, snapshots and
:func:`velocity`'s return value stay node-major, (n1, n2, 4), and an
accepted step's state is C-contiguous.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import (BadParameter, DegenerateMetric, InsufficientBlowup,
                     Mcf4dError, NonFinite, ShortTrace)
from .geometry import (GeometryBundle, ScaledBundle, build_geometry,
                       scaled_field)
from .grid import SurfaceState, component_major

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
        for name in ("max_steps", "stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise BadParameter(f"{name} must be an integer, got {value!r}")
        if self.stride < 1:
            raise BadParameter(f"stride must be at least 1, got {self.stride}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise BadParameter(f"dt must be finite and positive, got {self.dt}")
        if not self.t_end > 0:
            raise BadParameter(f"t_end must be positive, got {self.t_end}")
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


class MappedStates(Sequence):
    """States read through a per-sample map: state k is ``source[k]``
    mapped F -> scales[k] (F - offsets[k]) at time ``times[k]`` by
    :meth:`SurfaceState.transformed` on every read; no mapped state is kept.
    ``offsets`` is an (n, 4) array, or None for no offset.  ``source`` may
    repeat one state, so n samples of an exact flow keep one state.  A slice
    stays mapped, and :attr:`times` maps no positions."""

    def __init__(self, source: Sequence[SurfaceState], scales: np.ndarray,
                 offsets: np.ndarray | None, times: np.ndarray):
        self.source, self.offsets = source, offsets
        self.scales = np.asarray(scales, dtype=float)
        self.times = np.asarray(times, dtype=float)

    def __len__(self):
        return len(self.source)

    def __getitem__(self, index):
        offsets = self.offsets
        if isinstance(index, slice):
            return MappedStates(
                self.source[index], self.scales[index],
                None if offsets is None else offsets[index], self.times[index])
        return self.source[index].transformed(
            scale=float(self.scales[index]),
            offset=None if offsets is None else offsets[index],
            time=float(self.times[index]))


@dataclass
class FlowTrace:
    """Stored states (possibly thinned by stride) plus dense scalar series.

    ``_shared``, when set, is the geometry of the one state that the stored
    states (:class:`MappedStates`) map: stored state i is that state scaled
    by ``states.scales[i]`` about the origin and then translated, so its
    geometry is this one bundle scaled by powers of ``states.scales[i]``
    (see :meth:`bundle`).
    """

    states: Sequence[SurfaceState]
    state_steps: list[int]
    scalars: TraceScalars
    termination_reason: str
    meta: dict = field(default_factory=dict)
    _bundles: dict = field(default_factory=dict, repr=False)
    _a2_fields: dict = field(default_factory=dict, repr=False)
    _source: "FlowTrace | None" = field(default=None, repr=False)
    _shared: GeometryBundle | None = field(default=None, repr=False)

    @property
    def times(self) -> np.ndarray:
        """Times of the stored states; mapped states give theirs without
        mapping any positions."""
        if isinstance(self.states, MappedStates):
            return self.states.times.copy()
        return np.array([s.time for s in self.states])

    def _stored(self, index: int) -> int:
        """Non-negative index of stored state ``index``, which counts from
        the end when negative, as a list index does."""
        n = len(self.states)
        if not -n <= index < n:
            raise BadParameter(f"stored state {index} outside range({n})")
        return index + n if index < 0 else index

    def bundle(self, index: int, need_j: bool = False) -> GeometryBundle:
        """Geometry of stored state ``index``, memoized in at most 12
        bundles, each given the stored |A|^2 field of its state when the
        trace has one (run_flow read it off the same geometry).  ``need_j``
        has no effect: every bundle gives |grad J|^2 when read.

        A trace made by :meth:`parabolic` builds and keeps no bundle: it
        returns a new :class:`~mcf4d.geometry.ScaledBundle` on its source
        trace's bundle of the same index on every call, so a caller that
        reads one state's geometry many times should hold on to it.  Nor
        does a trace with a shared geometry (the translation and the radius
        ODE of :mod:`~mcf4d.scenarios`): it returns a new
        ``ScaledBundle(geometry, states, index)``, which maps the stored
        state only when its positions are first read, and then keeps them.

        The analyses sweep the stored states in ascending order, singly or
        in (i - 1, i, i + 1) windows.  So a full cache evicts the largest
        cached index below ``index - 1``, a state this sweep has passed and
        no window still needs, or else the largest cached index, which this
        sweep reaches last.  Under repeated ascending sweeps that bundle is
        the one whose next use lies furthest ahead, the one the optimal
        rule evicts (Belady, IBM Syst. J. 5 (1966) 78-101); first-in,
        first-out would evict the state the next sweep reads first.
        """
        index = self._stored(index)
        if self._shared is not None or self._source is not None:
            source = (self._shared if self._shared is not None
                      else self._source.bundle(index))
            return ScaledBundle(source, self.states, index)
        cached = self._bundles.get(index)
        if cached is None:
            cached = build_geometry(self.states[index])
            if index in self._a2_fields:
                cached.norm_A2 = self._a2_fields[index]
            if len(self._bundles) >= 12:
                passed = [i for i in self._bundles if i < index - 1]
                del self._bundles[max(passed or self._bundles)]
            self._bundles[index] = cached
        return cached

    def curvature_a2(self, index: int) -> np.ndarray:
        """|A|^2 field of stored state ``index``, cached.  run_flow fills
        the cache as it stores states; any other state of a trace that
        builds its own geometry reads it off :meth:`bundle` on first use.
        A trace made by :meth:`parabolic` reads its own cache first and
        otherwise returns its source trace's field over lam^2, uncached.  A
        trace with a shared geometry maps no state and caches nothing: it
        returns the shared field scaled as :meth:`bundle`'s view scales it,
        at scale 1 (a translation) the shared array itself."""
        index = self._stored(index)
        cached = self._a2_fields.get(index)
        if cached is not None:
            return cached
        if self._shared is not None:
            return scaled_field(self._shared, "norm_A2",
                                float(self.states.scales[index]))
        if self._source is not None:
            return (self._source.curvature_a2(index)
                    / float(self.states.scales[index]) ** 2)
        cached = self._a2_fields[index] = self.bundle(index).norm_A2
        return cached

    def parabolic(self, lam: float, t0: float = 0.0,
                  offset: np.ndarray | None = None) -> "FlowTrace":
        """Parabolic rescaling F -> lam (F - offset), t -> lam^2 (t - t0).

        Stored states and scalars both move: area scales by lam^2, the
        curvatures by lam^-2, det g by lam^4; angles and steps are
        invariant.  The new trace copies ``meta`` and starts with an empty
        |A|^2 cache.  Its states are :class:`MappedStates`: references to
        these states plus their scale lam, offset and mapped time, each
        mapped again on every read, so a caller that reads one state many
        times should hold on to it.
        Its geometry is mapped too: it keeps a reference to this trace, and
        :meth:`bundle` and :meth:`curvature_a2` scale this trace's geometry
        by powers of lam (:data:`~mcf4d.geometry.SCALING_POWERS`), so no
        mapped state's geometry is built and the new trace holds no bundle.

        Raises BadParameter, before anything is mapped, unless lam is finite
        and positive and t0 and every entry of the offset are finite.
        """
        if not (math.isfinite(lam) and lam > 0):
            raise BadParameter(f"rescaling factor must be finite and "
                               f"positive, got {lam}")
        if not math.isfinite(t0):
            raise BadParameter(f"rescaling time t0 must be finite, got {t0}")
        if offset is not None and not np.all(np.isfinite(offset)):
            raise BadParameter(f"rescaling offset must be finite, got {offset}")
        n = len(self.states)
        states = MappedStates(
            self.states, np.full(n, lam),
            None if offset is None else np.broadcast_to(offset, (n, 4)),
            lam * lam * (self.times - t0))
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
                         meta=dict(self.meta), _source=self)


def scalar_row(step: int, geom: GeometryBundle) -> tuple:
    """Diagnostics row (see SCALAR_COLUMNS) of the state ``geom`` was
    built from."""
    top, bottom = np.maximum.reduce, np.minimum.reduce
    return (step, geom.time,
            float(np.add.reduce(geom.quadrature_weights(), axis=None)),
            float(top(geom.norm_A2, axis=None)),
            float(top(geom.norm_H2, axis=None)),
            float(bottom(geom.cos_alpha, axis=None)),
            float(bottom(geom.cos_theta, axis=None)),
            float(bottom(geom.det_g, axis=None)))


def cfl_dt(geom: GeometryBundle) -> float:
    """Parabolic step bound CFL_SAFETY * min eig(g) * min(spacing)^2 / 8.

    The smaller eigenvalue of g is taken as det g / (half trace + radius),
    not half trace - radius, which cancels to 0 or below when it is under the
    rounding of the larger one (a steep graph)."""
    half_tr = 0.5 * (geom.g11 + geom.g22)
    radius = np.sqrt(0.25 * (geom.g11 - geom.g22) ** 2 + geom.g12 ** 2)
    eig_min = float(np.min(geom.det_g / (half_tr + radius)))
    h_min = min(geom.grid.spacing1, geom.grid.spacing2)
    return CFL_SAFETY * eig_min * h_min * h_min / CFL_DENOMINATOR


def velocity(state: SurfaceState,
             geom: GeometryBundle | None = None) -> np.ndarray:
    """Mean curvature vector field H of ``state``, node-major (n1, n2, 4)
    like the positions; ``geom``, when given, is the state's geometry
    already built and is read, not recomputed."""
    if geom is None:
        geom = GeometryBundle(state)
    return geom.mean_curvature.transpose(1, 2, 0)


def _stage(state: SurfaceState, y: np.ndarray) -> SurfaceState:
    """Stage state of a step from ``state``: its positions are the node-major
    view of the component-major stage array ``y``, so the stage's geometry
    reads ``y`` itself."""
    return SurfaceState(state.grid, y.transpose(1, 2, 0), state.time,
                        state.shift1, state.shift2)


def _accepted(state: SurfaceState, y: np.ndarray, dt: float) -> SurfaceState:
    """State a step from ``state`` reaches at component-major positions
    ``y``, stored node-major and C-contiguous like every other state."""
    out = SurfaceState(state.grid, np.ascontiguousarray(y.transpose(1, 2, 0)),
                       state.time + dt, state.shift1.copy(),
                       state.shift2.copy())
    out.require_finite()
    return out


def step(state: SurfaceState, dt: float, geom: GeometryBundle) -> SurfaceState:
    """One explicit RK4 step of dF/dt = H, the step of fixed-dt runs;
    ``geom`` is the geometry of ``state`` and supplies the first stage."""
    y0 = component_major(state.positions)
    k1 = velocity(state, geom).transpose(2, 0, 1)
    k2 = velocity(_stage(state, y0 + (0.5 * dt) * k1)).transpose(2, 0, 1)
    k3 = velocity(_stage(state, y0 + (0.5 * dt) * k2)).transpose(2, 0, 1)
    k4 = velocity(_stage(state, y0 + dt * k3)).transpose(2, 0, 1)
    return _accepted(state, y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                     dt)


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
    y0 = component_major(state.positions)
    f0 = velocity(state, geom).transpose(2, 0, 1)
    prev, cur = y0, y0 + (mu1 * dt) * f0
    for mu, nu, mu_t, gamma_t in rows:
        f = velocity(_stage(state, cur)).transpose(2, 0, 1)
        prev, cur = cur, ((1.0 - mu - nu) * y0 + mu * cur + nu * prev
                          + (mu_t * dt) * f + (gamma_t * dt) * f0)
    return _accepted(state, cur, dt)


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
            else:
                dt = min(controls.dt, time_left)
            if dt <= 0:
                raise Mcf4dError(f"non-positive step size {dt}")
            stages = 4 if controls.dt is not None else rkc_stages(dt, cfl)
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
