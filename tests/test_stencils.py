"""Finite-difference weight and derivative-matrix checks.

Oracles: analytic derivatives of polynomials (which the stencils must
reproduce exactly up to their design degree), of trigonometric fields
(which expose the convergence order), and the dense derivative matrix,
against which the banded apply of long axes is checked.
"""

import numpy as np
import pytest

from mcf4d.geometry import GeometryBundle
from mcf4d.scenarios import grim_reaper_product
from mcf4d.stencils import (BANDED_MIN_NODES, axis_derivative,
                            derivative_matrix, fd_weights)


def test_fd_weights_central_first_derivative():
    x = np.arange(-2.0, 3.0)
    w = fd_weights(0.0, x, 1)[1]
    np.testing.assert_allclose(w, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
                               atol=1e-14)


def test_fd_weights_central_second_derivative():
    x = np.arange(-2.0, 3.0)
    w = fd_weights(0.0, x, 2)[2]
    np.testing.assert_allclose(
        w, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, atol=1e-13)


def test_fd_weights_reproduce_polynomial_derivatives():
    # Six arbitrary nodes determine degree-5 interpolation exactly.
    x = np.array([-1.3, -0.4, 0.1, 0.8, 1.7, 2.2])
    z = 0.35
    for m in (1, 2):
        w = fd_weights(z, x, m)[m]
        for k in range(6):
            poly = np.zeros(6)
            poly[k] = 1.0
            deriv = np.polyder(np.poly1d(poly[::-1]), m)(z)
            assert abs(w @ x ** k - deriv) < 1e-10 * max(1.0, abs(deriv))


def test_derivative_matrix_is_cached():
    a = derivative_matrix(32, 0.1, True, 1)
    b = derivative_matrix(32, 0.1, True, 1)
    assert a is b


def test_clamped_matrix_exact_on_quartics():
    n, h = 16, 0.37
    x = np.arange(n) * h
    f = 2.0 - x + 0.5 * x ** 2 + 0.25 * x ** 3 - 0.125 * x ** 4
    d1 = -1.0 + x + 0.75 * x ** 2 - 0.5 * x ** 3
    d2 = 1.0 + 1.5 * x - 1.5 * x ** 2
    got1 = derivative_matrix(n, h, False, 1) @ f
    got2 = derivative_matrix(n, h, False, 2) @ f
    np.testing.assert_allclose(got1, d1, atol=1e-9)
    np.testing.assert_allclose(got2, d2, atol=1e-8)


def test_periodic_matrix_fourth_order_on_sine():
    errs = []
    for n in (32, 64):
        h = 2.0 * np.pi / n
        x = np.arange(n) * h
        err1 = np.abs(derivative_matrix(n, h, True, 1) @ np.sin(x)
                      - np.cos(x)).max()
        err2 = np.abs(derivative_matrix(n, h, True, 2) @ np.sin(x)
                      + np.sin(x)).max()
        errs.append((err1, err2))
    for k in range(2):
        ratio = errs[0][k] / errs[1][k]
        assert 12.0 < ratio < 20.0, f"order-4 ratio off: {ratio}"


def test_axis_derivative_matches_matrix_on_both_axes():
    n1, n2, h1, h2 = 16, 24, 0.2, 0.3
    rng = np.random.default_rng(3)
    field = rng.standard_normal((n1, n2))
    m1 = derivative_matrix(n1, h1, True, 1)
    m2 = derivative_matrix(n2, h2, False, 2)
    got0 = axis_derivative(field, 0, n1, h1, True, 1)
    got1 = axis_derivative(field, 1, n2, h2, False, 2)
    np.testing.assert_allclose(got0, m1 @ field, atol=1e-12)
    np.testing.assert_allclose(got1, (m2 @ field.T).T, atol=1e-12)


def test_axis_derivative_handles_vector_fields():
    n = 16
    h = 2.0 * np.pi / n
    x = np.arange(n) * h
    field = np.stack([np.sin(x), np.cos(x)], axis=-1)[:, None, :]
    field = np.repeat(field, 8, axis=1)
    got = axis_derivative(field, 0, n, h, True, 1)
    expect = np.stack([np.cos(x), -np.sin(x)], axis=-1)[:, None, :]
    assert np.abs(got - expect).max() < 1e-3


@pytest.mark.parametrize("n", [BANDED_MIN_NODES - 1, BANDED_MIN_NODES, 257,
                               1025])
def test_axis_derivative_matches_dense_product_across_the_cut(n):
    # Within 1e-13 of the magnitude of the terms each product sums.  The
    # uncached matrix keeps the long-axis operators out of the cache.
    rng = np.random.default_rng(n)
    h = 2.0 * np.pi / n
    field0 = rng.standard_normal((n, 3, 4))
    field1 = rng.standard_normal((4, 5, n))
    for periodic in (True, False):
        for order in (1, 2):
            d = derivative_matrix.__wrapped__(n, h, periodic, order)
            got0 = axis_derivative(field0, 0, n, h, periodic, order)
            got1 = axis_derivative(field1, 1, n, h, periodic, order)
            assert np.all(np.abs(got0 - np.tensordot(d, field0, axes=(1, 0)))
                          <= 1e-13 * np.tensordot(np.abs(d), np.abs(field0),
                                                  axes=(1, 0)))
            assert np.all(np.abs(got1 - field1 @ d.T)
                          <= 1e-13 * (np.abs(field1) @ np.abs(d).T))


def test_banded_apply_exact_on_quartics():
    # The quartic of the n = 16 matrix check, over the same span of x.
    n = BANDED_MIN_NODES
    h = 15 * 0.37 / (n - 1)
    x = np.arange(n) * h
    f = 2.0 - x + 0.5 * x ** 2 + 0.25 * x ** 3 - 0.125 * x ** 4
    d1 = -1.0 + x + 0.75 * x ** 2 - 0.5 * x ** 3
    d2 = 1.0 + 1.5 * x - 1.5 * x ** 2
    for order, expect, atol in ((1, d1, 1e-9), (2, d2, 1e-8)):
        got0 = axis_derivative(f[:, None], 0, n, h, False, order)[:, 0]
        got1 = axis_derivative(f[None, :], 1, n, h, False, order)[0]
        np.testing.assert_allclose(got0, expect, atol=atol)
        np.testing.assert_allclose(got1, expect, atol=atol)


def test_long_axis_caches_no_dense_matrix():
    derivative_matrix.cache_clear()
    state = grim_reaper_product(n1=1025)
    GeometryBundle(state)
    # The two operators of the short v-axis are the only entries.
    assert derivative_matrix.cache_info().currsize == 2
    g = state.grid
    for order in (1, 2):
        derivative_matrix(g.n2, g.spacing2, g.periodic2, order)
    assert derivative_matrix.cache_info().currsize == 2


@pytest.mark.parametrize("n", [16, 257])
def test_axis_derivative_takes_a_component_major_field_block_by_block(n):
    # Along axis 0 a (4, n, m) field is four (n, m) fields: one batched
    # product below BANDED_MIN_NODES, the banded apply per block above it,
    # each bitwise the derivative of that block alone.
    rng = np.random.default_rng(n)
    h = 2.0 * np.pi / n
    field = rng.standard_normal((4, n, 24))
    for periodic in (True, False):
        for order in (1, 2):
            got = axis_derivative(field, 0, n, h, periodic, order)
            expect = np.stack([axis_derivative(block, 0, n, h, periodic,
                                               order) for block in field])
            assert got.shape == field.shape
            assert np.array_equal(got, expect), (periodic, order)
    with pytest.raises(ValueError, match="not 16 long"):
        axis_derivative(np.zeros((4, 5, 16)), 0, 16, h, True, 1)


@pytest.mark.parametrize("n", [16, 20, 24, 32, 48, 255])
def test_last_axis_product_is_bitwise_the_product_with_the_transpose(n):
    # The last-axis derivative is the product with the transposed view D.T
    # for vector fields (4 n1 rows) and scalar fields alike.  A row-major
    # copy of D^T would select another BLAS kernel, which rounds
    # differently at n = 20 and at few rows.
    rng = np.random.default_rng(n)
    h = 2.0 * np.pi / n
    for shape in ((4, 20, n), (8, n), (1, n)):
        field = rng.standard_normal(shape)
        for periodic in (True, False):
            for order in (1, 2):
                d = derivative_matrix(n, h, periodic, order)
                got = axis_derivative(field, 1, n, h, periodic, order)
                expect = (field.reshape(-1, n) @ d.T).reshape(shape)
                assert got.tobytes() == expect.tobytes(), (shape, periodic,
                                                           order)


@pytest.mark.parametrize("n", [BANDED_MIN_NODES, 257])
def test_banded_axis_caches_no_dense_matrix_on_either_axis(n):
    derivative_matrix.cache_clear()
    rng = np.random.default_rng(n)
    h = 1.0 / n
    for periodic in (True, False):
        for order in (1, 2):
            axis_derivative(rng.standard_normal((n, 3)), 0, n, h, periodic,
                            order)
            axis_derivative(rng.standard_normal((3, n)), 1, n, h, periodic,
                            order)
    assert derivative_matrix.cache_info().currsize == 0
