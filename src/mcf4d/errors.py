"""Exception types shared across the package.

Errors that refer to a specific grid node carry it as (row, col).
"""

import numpy as np


def first_node(mask: np.ndarray) -> tuple:
    """(row, col) of the first True entry of an (n1, n2) node mask."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


class Mcf4dError(Exception):
    """Base class for all package errors."""


class BadParameter(Mcf4dError):
    """A configuration or call parameter is outside its admissible range."""


class BadP(BadParameter):
    """Exponent p of the curvature weight is outside its open interval."""


class NodeError(Mcf4dError):
    """Base class for errors tied to a single grid node."""

    def __init__(self, node, message=""):
        self.node = node
        super().__init__(f"{message} at node {node}" if message else f"node {node}")


class DegenerateMetric(NodeError):
    """Induced metric is numerically singular at a node."""


class NonFinite(NodeError):
    """A field contains NaN or infinity at a node."""


class FrameInconsistent(NodeError):
    """Computed frame data violates an exact algebraic bound at a node."""


class WeightFloor(NodeError):
    """An angle cosine fell below the weight floor where the kernel matters."""


class TimeOrder(Mcf4dError):
    """Samples are not strictly increasing in time, or t0 is not ahead."""


class ShortTrace(Mcf4dError):
    """A flow trace has too few samples for the requested analysis."""


class DenominatorFloor(Mcf4dError):
    """A pointwise denominator fell below its admissibility floor."""


class InsufficientBlowup(Mcf4dError):
    """Curvature did not grow enough to support singularity analysis."""


class InsufficientCoverage(Mcf4dError):
    """Stored states do not cover the requested parabolic window."""


class ZeroCurvature(Mcf4dError):
    """The curvature scale vanishes, so normalization is impossible."""


class KindMismatch(Mcf4dError):
    """A Lagrangian quantity was requested on a non-Lagrangian flow."""


class OrderTooLow(Mcf4dError):
    """An observed convergence order fell below the required threshold."""


class PropertyViolation(Mcf4dError):
    """A scanned structural property of a fixed profile failed to hold."""
