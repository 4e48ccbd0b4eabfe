"""Parametric grids and surface states for immersions of patches into R^4.

Ambient coordinates are ordered (x1, y1, x2, y2) and identified with C^2
through z1 = x1 + i*y1, z2 = x2 + i*y2.

A periodic axis may carry a constant seam shift: crossing the seam adds a
fixed 4-vector to the position (graphs over a plane wrap up to a lattice
translation).  Compact surfaces use zero shifts.  Derivatives of position
fields strip the induced linear ramp so stencils only ever see periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stencils
from .errors import BadParameter, NonFinite

AMBIENT_DIM = 4
# Most nodes per axis: one dense (n, n) derivative matrix at this size is
# already 134 MB; the largest grid in use has 1025 nodes.
MAX_AXIS_NODES = 4097


@dataclass(frozen=True)
class ParamGrid:
    """Uniform parameter grid; axis u has n1 nodes, axis v has n2 nodes,
    each between 8 and MAX_AXIS_NODES."""

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
        if self.spacing1 <= 0 or self.spacing2 <= 0:
            raise BadParameter("grid spacings must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def node_count(self) -> int:
        return self.n1 * self.n2

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
    """Immersed surface at one instant: node positions plus seam data."""

    grid: ParamGrid
    positions: np.ndarray           # (n1, n2, 4)
    time: float = 0.0
    shift1: np.ndarray = field(default_factory=lambda: np.zeros(AMBIENT_DIM))
    shift2: np.ndarray = field(default_factory=lambda: np.zeros(AMBIENT_DIM))

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
        if not self.grid.periodic1 and np.any(self.shift1):
            raise BadParameter("seam shift on a clamped axis")
        if not self.grid.periodic2 and np.any(self.shift2):
            raise BadParameter("seam shift on a clamped axis")

    def require_finite(self):
        bad = ~np.isfinite(self.positions)
        if bad.any():
            node = int(np.argmax(bad.any(axis=2)))
            raise NonFinite(node, "non-finite position")

    def periodic_part(self) -> np.ndarray:
        """Positions minus the seam ramps; genuinely periodic on periodic axes."""
        out = self.positions
        g = self.grid
        if np.any(self.shift1):
            frac = (g.axis_coords(0) / (g.n1 * g.spacing1))[:, None, None]
            out = out - frac * self.shift1
        if np.any(self.shift2):
            frac = (g.axis_coords(1) / (g.n2 * g.spacing2))[None, :, None]
            out = out - frac * self.shift2
        return out

    def copy(self) -> "SurfaceState":
        return SurfaceState(self.grid, self.positions.copy(), self.time,
                            self.shift1.copy(), self.shift2.copy())

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
                      order: int) -> np.ndarray:
    """Derivative of a periodic/clamped per-node field (no seam ramps)."""
    if axis == 0:
        return stencils.axis_derivative(field, 0, grid.n1, grid.spacing1,
                                        grid.periodic1, order)
    return stencils.axis_derivative(field, 1, grid.n2, grid.spacing2,
                                    grid.periodic2, order)


def position_derivatives(state: SurfaceState):
    """First and second derivatives of the immersion, seam ramps restored.

    Returns (F_u, F_v, F_uu, F_uv, F_vv), each of shape (n1, n2, 4).
    """
    g = state.grid
    per = state.periodic_part()
    f_u = scalar_derivative(per, g, 0, 1)
    f_v = scalar_derivative(per, g, 1, 1)
    f_uu = scalar_derivative(per, g, 0, 2)
    f_vv = scalar_derivative(per, g, 1, 2)
    f_uv = scalar_derivative(f_u, g, 1, 1)
    if np.any(state.shift1):
        f_u = f_u + state.shift1 / (g.n1 * g.spacing1)
    if np.any(state.shift2):
        f_v = f_v + state.shift2 / (g.n2 * g.spacing2)
    return f_u, f_v, f_uu, f_uv, f_vv
