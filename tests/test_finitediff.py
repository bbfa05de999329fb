import numpy as np
import pytest

from darkshelf.finitediff import fd_weights, first_derivative, second_derivative


def test_weights_reproduce_central_stencils():
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 2), np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-12
    )
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 1), np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-12
    )


@pytest.mark.parametrize("deriv,exact", [
    (first_derivative, lambda x: np.cos(x) * np.exp(0.1 * x) + 0.1 * np.sin(x) * np.exp(0.1 * x)),
    (second_derivative, lambda x: (0.01 - 1) * np.sin(x) * np.exp(0.1 * x) + 0.2 * np.cos(x) * np.exp(0.1 * x)),
])
def test_fourth_order_convergence(deriv, exact):
    errs = []
    for n in (200, 400):
        x = np.linspace(-3, 3, n)
        dx = x[1] - x[0]
        f = np.sin(x) * np.exp(0.1 * x)
        errs.append(np.max(np.abs(deriv(f, dx) - exact(x))))
    order = np.log2(errs[0] / errs[1])
    assert 3.6 < order < 4.6


def test_complex_fields():
    x = np.linspace(-2, 2, 600)
    dx = x[1] - x[0]
    f = np.exp(1j * 2.5 * x)
    d2 = second_derivative(f, dx)
    np.testing.assert_allclose(d2, -(2.5**2) * f, atol=2e-7)


def test_boundary_rows_same_order():
    # Error at the one-sided rows must refine at 4th order too.
    errs = []
    for n in (200, 400):
        x = np.linspace(0, 1, n)
        dx = x[1] - x[0]
        f = np.sin(3 * x)
        err = np.abs(second_derivative(f, dx) + 9 * np.sin(3 * x))
        errs.append(max(err[0], err[1], err[-1], err[-2]))
    assert np.log2(errs[0] / errs[1]) > 3.5


@pytest.mark.parametrize("deriv,order,edge_nodes", [(first_derivative, 1, 5), (second_derivative, 2, 6)])
def test_matches_row_by_row_stencils(deriv, order, edge_nodes):
    # Reference: each row's stencil from fd_weights, applied directly and then divided by dx**order.
    rng = np.random.default_rng(7)
    n, dx = 64, 0.07
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.empty_like(u)
    for j in range(n):
        nodes = np.arange(j - 2, j + 3)
        if j < 2:
            nodes = np.arange(edge_nodes)
        elif j >= n - 2:
            nodes = np.arange(n - edge_nodes, n)
        ref[j] = fd_weights(nodes - j, order) @ u[nodes] / dx**order
    assert np.max(np.abs(deriv(u, dx) - ref)) <= 3e-13 * np.max(np.abs(ref))
