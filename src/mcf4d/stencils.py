"""Fourth-order finite-difference operators on uniform 1-d axes.

A derivative D along either grid axis has the central stencil on every
interior row, wrap-around rows on a periodic axis and one-sided stencils of
the same order near clamped boundaries.  An axis shorter than
BANDED_MIN_NODES applies D as a dense (n, n) matrix, cached per axis
signature, in one matrix product over the whole field: D @ X along its first
axis, X @ D.T along its last.  There one BLAS call beats any banded loop.
The last-axis product reads the transposed view D.T, not a row-major copy
of D^T: with OpenBLAS the copy is faster at n = 16-48, but it selects
another kernel, which rounds differently on many shapes (every row count
tried at n = 20 or 25, up to 37 rows at n = 32), so results would move in
the last bit.  A longer axis applies D banded: shifted-slice multiply-adds
for the interior rows and one small gather product for the boundary rows,
O(n) work and memory where the dense matrix costs O(n^2).
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

# Axes of at least this many nodes take the banded apply.  Measured with one
# BLAS thread on an (n, 64) field, the dense product is faster up to n = 64
# along the first axis and up to about 192 along the last, where the banded
# apply works on strided views (ROADMAP, baseline "Stencils").
BANDED_MIN_NODES = 256


@functools.lru_cache(maxsize=None)
def _stencil(n: int, spacing: float, periodic: bool, order: int):
    """The derivative's rows on an n-node axis, as (central, rows, cols,
    weights): the central weights every interior row shares, and the rows
    near either end that the central stencil does not fit, each with its
    columns and weights; wrap-around on a periodic axis, a one-sided stencil
    of the same order on a clamped one."""
    if order not in (1, 2):
        raise ValueError(f"unsupported derivative order {order}")
    if n < 8:
        raise ValueError(f"axis needs at least 8 nodes, got {n}")
    h = float(spacing)
    half = _CENTRAL_POINTS[order] // 2
    offsets = np.arange(-half, half + 1)
    central = fd_weights(0.0, offsets * h, order)[order]
    rows = np.r_[0:half, n - half:n]
    if periodic:
        cols = (rows[:, None] + offsets) % n
        weights = np.tile(central, (rows.size, 1))
        return central, rows, cols, weights
    # One-sided stencils anchored to the nearest boundary.
    width = _ONESIDED_POINTS[order]
    cols = np.array([np.arange(width) if i < half else np.arange(n - width, n)
                     for i in rows])
    weights = np.array([fd_weights(i * h, c * h, order)[order]
                        for i, c in zip(rows, cols)])
    return central, rows, cols, weights


@functools.lru_cache(maxsize=None)
def derivative_matrix(n: int, spacing: float, periodic: bool, order: int) -> np.ndarray:
    """Dense (n, n) matrix of the 4th-order derivative of the given order."""
    central, rows, cols, weights = _stencil(n, spacing, periodic, order)
    half = rows.size // 2
    mat = np.zeros((n, n))
    inner = np.arange(half, n - half)
    for k, w in enumerate(central):
        mat[inner, inner + k - half] = w
    mat[rows[:, None], cols] = weights
    return mat


def _banded_apply(x: np.ndarray, out: np.ndarray, stencil) -> None:
    """out = D x for (n, m) views x and out, D given by its _stencil rows:
    interior rows by shifted-slice multiply-adds, boundary rows gathered."""
    central, rows, cols, weights = stencil
    n, width = x.shape[0], central.size
    inner = out[width // 2:n - width // 2]
    np.multiply(x[:n - width + 1], central[0], out=inner)
    for k in range(1, width):
        inner += central[k] * x[k:n - width + 1 + k]
    out[rows] = np.einsum("rc,rcm->rm", weights, x[cols])


def axis_derivative(field: np.ndarray, axis: int, n: int, spacing: float,
                    periodic: bool, order: int) -> np.ndarray:
    """Apply the derivative along the first axis of a field (``axis`` 0, the
    field viewed as (n, size / n)) or along its last axis (``axis`` 1, viewed
    as (size / n, n)).  Along axis 0 a field whose first axis is not n long
    but whose second is, such as a component-major (4, n1, n2) field, is a
    stack of fields along its first axis, and D applies to each.

    An axis shorter than BANDED_MIN_NODES takes the cached dense matrix, one
    BLAS product over the whole field (one per stacked field), which is
    fastest there.  A longer one takes the banded apply, O(n) in time and in
    cached memory where the dense matrix costs O(n^2) in both.
    """
    if axis == 0:
        stacked = field.shape[0] != n and field.shape[1:2] == (n,)
        if not (stacked or field.shape[0] == n):
            raise ValueError(f"axis 0 of a {field.shape} field is not {n} long")
        x = field.reshape(field.shape[0] if stacked else 1, n, -1)
    elif field.shape[-1] != n:
        raise ValueError(f"axis 1 of a {field.shape} field is not {n} long")
    if n < BANDED_MIN_NODES:
        mat = derivative_matrix(n, spacing, periodic, order)
        if axis == 0:
            return np.matmul(mat, x).reshape(field.shape)
        return (field.reshape(-1, n) @ mat.T).reshape(field.shape)
    stencil = _stencil(n, spacing, periodic, order)
    out = np.empty(field.shape, np.result_type(field, stencil[0]))
    if axis == 0:
        for xs, outs in zip(x, out.reshape(x.shape)):
            _banded_apply(xs, outs, stencil)
    else:
        _banded_apply(field.reshape(-1, n).T, out.reshape(-1, n).T, stencil)
    return out
