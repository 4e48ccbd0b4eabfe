"""Fourth-order finite-difference operators on uniform 1-d axes.

Derivatives are applied as dense (n, n) matrices D along either grid axis:
circulant central stencils on periodic axes, one-sided stencils of the same
order near clamped boundaries.  Matrices are cached per axis signature so
repeated geometry builds reuse them.  One apply is one matrix product over
the whole field: D @ X along its first axis, X @ D.T along its last.
"""

from __future__ import annotations

import functools

import numpy as np


def fd_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of derivatives 0..m at z from samples at nodes x.

    Standard recursive construction for one-dimensional finite-difference
    weights on arbitrary nodes; returns an (m + 1, len(x)) array whose row k
    holds the weights of the k-th derivative.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


# Stencil extents giving 4th-order accuracy for the 1st and 2nd derivative.
_CENTRAL_POINTS = {1: 5, 2: 5}
_ONESIDED_POINTS = {1: 5, 2: 6}


@functools.lru_cache(maxsize=None)
def derivative_matrix(n: int, spacing: float, periodic: bool, order: int) -> np.ndarray:
    """Dense (n, n) matrix of the 4th-order derivative of the given order."""
    if order not in (1, 2):
        raise ValueError(f"unsupported derivative order {order}")
    if n < 8:
        raise ValueError(f"axis needs at least 8 nodes, got {n}")
    h = float(spacing)
    mat = np.zeros((n, n))
    half = _CENTRAL_POINTS[order] // 2
    offsets = np.arange(-half, half + 1)
    wc = fd_weights(0.0, offsets * h, order)[order]
    if periodic:
        for off, w in zip(offsets, wc):
            idx = (np.arange(n) + off) % n
            mat[np.arange(n), idx] += w
        return mat
    for i in range(n):
        if half <= i < n - half:
            mat[i, i + offsets] = wc
            continue
        # One-sided stencil anchored to the nearest boundary, same order.
        width = _ONESIDED_POINTS[order]
        start = 0 if i < half else n - width
        nodes = np.arange(start, start + width)
        mat[i, nodes] = fd_weights(i * h, nodes * h, order)[order]
    return mat


def axis_derivative(field: np.ndarray, axis: int, n: int, spacing: float,
                    periodic: bool, order: int) -> np.ndarray:
    """Apply the cached derivative matrix along the first axis of a field
    (``axis`` 0, the field viewed as (n, size / n)) or along its last axis
    (``axis`` 1, viewed as (size / n, n)), as one matrix product."""
    if field.shape[0 if axis == 0 else -1] != n:
        raise ValueError(f"axis {axis} of a {field.shape} field is not {n} long")
    mat = derivative_matrix(n, spacing, periodic, order)
    if axis == 0:
        return (mat @ field.reshape(n, -1)).reshape(field.shape)
    return (field.reshape(-1, n) @ mat.T).reshape(field.shape)
