"""Parametric grids and surface states for immersions of patches into R^4.

Ambient coordinates are ordered (x1, y1, x2, y2) and identified with C^2
through z1 = x1 + i*y1, z2 = x2 + i*y2.

A periodic axis may carry a constant seam shift: crossing the seam adds a
fixed 4-vector to the position (graphs over a plane wrap up to a lattice
translation).  Compact surfaces use zero shifts.  Derivatives of position
fields strip the induced linear ramp so stencils only ever see periodic data.

The positions of stored states and snapshots are node-major, (n1, n2, 4).
Integrator stages are component-major: a stage state's positions are the
node-major view of a C-contiguous (4, n1, n2) stage array.  The derivative
kernel works in that layout, one contiguous (n1, n2) block per component:
it reads a state's positions component-major once (a free view for a stage
state, one copy for a stored one), strips the seam ramps there, and writes
the five derivative fields into the slots of one C-contiguous
(5, 4, n1, n2) stack, (F_u, F_v, F_uu, F_uv, F_vv).  In that stack the
component axis of every field is slower in memory than the nodes, the
layout in which ``np.einsum`` sums it in order, bitwise as a multiply and
a sum over the axis do (see :mod:`~mcf4d.geometry`).

A state's seam shifts are fixed once it is made: ``__post_init__`` checks
them and its time finite and notes which axes carry a shift (``seam1``,
``seam2``).  A shifted state's seam data, a broadcastable (4, n1, 1) or
(4, 1, n2) ramp per shifted axis and the slope it adds to that axis's first
derivative, is built by :meth:`SurfaceState.seam_data` on the state's first
derivative evaluation and kept, and the states :meth:`SurfaceState.moved`
makes from it (integrator stages, accepted steps, :meth:`SurfaceState.copy`)
share it.  The ramps and slopes are the outer products and quotients the
derivatives formed on every call before they were kept, subtracted and added
in the same order, so every derivative and field is bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stencils
from .errors import BadParameter, NonFinite, first_node

AMBIENT_DIM = 4
# Most nodes per axis: on a square grid this size each (4, n1, n2) field is
# already 537 MB.  The largest grid in use has 1025 nodes.
MAX_AXIS_NODES = 4097
# Grid spacings outside this range overflow the stencil weights, which
# multiply up to five node distances.
SPACING_RANGE = (1e-50, 1e50)


@dataclass(frozen=True)
class ParamGrid:
    """Uniform parameter grid; axis u has n1 nodes, axis v has n2 nodes,
    each between 8 and MAX_AXIS_NODES, spaced within SPACING_RANGE."""

    n1: int
    n2: int
    spacing1: float
    spacing2: float
    periodic1: bool
    periodic2: bool

    def __post_init__(self):
        if not (8 <= self.n1 <= MAX_AXIS_NODES
                and 8 <= self.n2 <= MAX_AXIS_NODES):
            raise BadParameter(f"grid needs 8 to {MAX_AXIS_NODES} nodes per "
                               f"axis, got {self.n1}x{self.n2}")
        lo, hi = SPACING_RANGE
        if not (lo <= self.spacing1 <= hi and lo <= self.spacing2 <= hi):
            raise BadParameter(f"grid spacings must lie in [{lo:g}, {hi:g}], "
                               f"got {self.spacing1:g}, {self.spacing2:g}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along an axis, starting at 0."""
        if axis == 0:
            return np.arange(self.n1) * self.spacing1
        return np.arange(self.n2) * self.spacing2

    def node_weight(self) -> float:
        """Parameter-area weight of one node (midpoint quadrature)."""
        return self.spacing1 * self.spacing2


@dataclass
class SurfaceState:
    """Immersed surface at one instant: node positions plus seam data.

    ``time`` and both seam shifts must be finite, and a clamped axis takes
    no shift.  The shifts are fixed once the state is made: ``seam1`` and
    ``seam2`` tell, from then on, whether each is nonzero."""

    grid: ParamGrid
    positions: np.ndarray           # (n1, n2, 4)
    time: float = 0.0
    shift1: np.ndarray = field(default_factory=lambda: np.zeros(AMBIENT_DIM))
    shift2: np.ndarray = field(default_factory=lambda: np.zeros(AMBIENT_DIM))
    seam1: bool = field(init=False, repr=False, compare=False)
    seam2: bool = field(init=False, repr=False, compare=False)
    _seam_data: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.shift1 = np.asarray(self.shift1, dtype=float)
        self.shift2 = np.asarray(self.shift2, dtype=float)
        expected = (self.grid.n1, self.grid.n2, AMBIENT_DIM)
        if self.positions.shape != expected:
            raise BadParameter(
                f"positions shape {self.positions.shape} != grid shape {expected}")
        if self.shift1.shape != (AMBIENT_DIM,) or self.shift2.shape != (AMBIENT_DIM,):
            raise BadParameter("seam shifts must be 4-vectors")
        if not math.isfinite(self.time):
            raise BadParameter(f"time must be finite, got {self.time}")
        seams = []
        for name, shift in (("shift1", self.shift1), ("shift2", self.shift2)):
            values = shift.tolist()
            if not all(map(math.isfinite, values)):
                raise BadParameter(f"seam shift {name} must be finite, "
                                   f"got {shift}")
            seams.append(any(values))
        self.seam1, self.seam2 = seams
        if ((self.seam1 and not self.grid.periodic1)
                or (self.seam2 and not self.grid.periodic2)):
            raise BadParameter("seam shift on a clamped axis")
        self._seam_data = None

    def moved(self, positions: np.ndarray, time: float) -> "SurfaceState":
        """This state's grid and seams, shift arrays and seam data shared,
        at node-major ``positions`` and ``time``, with no check: the caller
        passes a float (n1, n2, 4) array and a finite time, as an integrator
        stage or step does from a checked state."""
        # One by one, in the order a checked state gets them: a state whose
        # __dict__ were copied whole would read every attribute slower.
        out = object.__new__(SurfaceState)
        out.grid, out.positions, out.time = self.grid, positions, time
        out.shift1, out.shift2 = self.shift1, self.shift2
        out.seam1, out.seam2 = self.seam1, self.seam2
        out._seam_data = self._seam_data
        return out

    def require_finite(self):
        finite = np.isfinite(self.positions)
        if not finite.all():
            raise NonFinite(first_node(~finite.all(axis=2)),
                            "non-finite position")

    def seam_data(self) -> tuple:
        """(ramps, slope1, slope2) of a state with a seam shift: the
        nonzero seam ramps, u's (4, n1, 1) before v's (4, 1, n2), and the
        (4, 1, 1) slope each shift adds to F_u and F_v (None on an axis
        without shift).  Each ramp is shift * (node coordinate / axis
        length), each slope shift / axis length.  Built once per state and
        shared, read-only, with the states :meth:`moved` from it."""
        data = self._seam_data
        if data is not None:
            return data
        g = self.grid
        ramps, slopes = [], []
        for axis, seam, shift, n, h in (
                (0, self.seam1, self.shift1, g.n1, g.spacing1),
                (1, self.seam2, self.shift2, g.n2, g.spacing2)):
            if not seam:
                slopes.append(None)
                continue
            frac = g.axis_coords(axis) / (n * h)
            ramp = shift[:, None, None] * (frac[None, :, None] if axis == 0
                                           else frac[None, None, :])
            slope = (shift / (n * h))[:, None, None]
            ramp.flags.writeable = slope.flags.writeable = False
            ramps.append(ramp)
            slopes.append(slope)
        data = self._seam_data = (tuple(ramps), *slopes)
        return data

    def periodic_components(self) -> np.ndarray:
        """Positions minus the seam ramps, genuinely periodic on periodic
        axes, as a C-contiguous component-major (4, n1, n2) array: a ramp is
        the outer product of the shift with the node's fraction of its axis,
        kept broadcastable in the state's :meth:`seam_data`.  The u ramp is
        subtracted first, into a new array, then the v ramp in place, so
        each node is (x - ramp_u) - ramp_v.  Without shifts this is
        :func:`component_major` of the positions, which for a stage state is
        its own stage array, not a copy."""
        if not (self.seam1 or self.seam2):
            return component_major(self.positions)
        first, *rest = self.seam_data()[0]
        pos = self.positions.transpose(2, 0, 1)
        out = np.subtract(pos, first, out=np.empty(pos.shape))
        for ramp in rest:
            out -= ramp
        return out

    def copy(self) -> "SurfaceState":
        """Independent positions; the fixed shift arrays and seam data are
        shared."""
        return self.moved(self.positions.copy(), self.time)

    def transformed(self, scale: float = 1.0, offset: np.ndarray | None = None,
                    rotation: np.ndarray | None = None,
                    time: float | None = None) -> "SurfaceState":
        """New state with positions mapped x -> scale * R (x - offset)."""
        pos = self.positions
        if offset is not None:
            pos = pos - np.asarray(offset, dtype=float)
        s1, s2 = self.shift1, self.shift2
        if rotation is not None:
            rot = np.asarray(rotation, dtype=float)
            pos = pos @ rot.T
            s1 = rot @ s1
            s2 = rot @ s2
        return SurfaceState(self.grid, scale * pos,
                            self.time if time is None else time,
                            scale * s1, scale * s2)


def scalar_derivative(field: np.ndarray, grid: ParamGrid, axis: int,
                      order: int, out: np.ndarray | None = None) -> np.ndarray:
    """Derivative of a periodic/clamped per-node field (no seam ramps) along
    u (``axis`` 0: the field's first axis, or its second for a stack of
    fields such as a component-major (4, n1, n2) one) or v (``axis`` 1, its
    last), into ``out`` when given; see
    :func:`~mcf4d.stencils.axis_derivative`."""
    if axis == 0:
        return stencils.axis_derivative(field, 0, grid.n1, grid.spacing1,
                                        grid.periodic1, order, out)
    return stencils.axis_derivative(field, 1, grid.n2, grid.spacing2,
                                    grid.periodic2, order, out)


def component_major(field: np.ndarray) -> np.ndarray:
    """C-contiguous (4, n1, n2) layout of a node-major (n1, n2, 4) field: a
    copy, or, when the field is the node-major view of such an array, a view
    of that array."""
    return np.ascontiguousarray(field.transpose(2, 0, 1))


def position_derivatives(state: SurfaceState) -> np.ndarray:
    """First and second derivatives of the immersion, seam ramps restored.

    Returns one C-contiguous (5, 4, n1, n2) stack of the component-major
    fields (F_u, F_v, F_uu, F_uv, F_vv), which unpacks as five (4, n1, n2)
    arrays.  A u-derivative is one product D @ X per (n1, n2) block of the
    component-major periodic part; a v-derivative is one product X @ D.T
    over the field viewed as (4 * n1, n2).  Each is written into its slot
    of the stack, in the order the five were formed as separate arrays.
    """
    g = state.grid
    per = state.periodic_components()
    derivs = np.empty((5, AMBIENT_DIM, g.n1, g.n2))
    f_u, f_v, f_uu, f_uv, f_vv = derivs
    scalar_derivative(per, g, 0, 1, f_u)
    scalar_derivative(per, g, 0, 2, f_uu)
    scalar_derivative(per, g, 1, 1, f_v)
    scalar_derivative(per, g, 1, 2, f_vv)
    scalar_derivative(f_u, g, 1, 1, f_uv)
    if state.seam1 or state.seam2:
        _, slope1, slope2 = state.seam_data()
        if slope1 is not None:
            f_u += slope1
        if slope2 is not None:
            f_v += slope2
    return derivs
