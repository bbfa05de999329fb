"""Finite-difference stencils on uniform grids.

Fourth-order central differences in the interior with one-sided stencils of
the same order at the points near each boundary.  The dark-soliton field is
not periodic (it carries a phase jump), so no wraparound is ever used.
Stencil weights solve the Vandermonde (moment) system of the nodes.
"""

from __future__ import annotations

import math

import numpy as np


def fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Weights approximating the ``order``-th derivative at offset 0.

    ``offsets`` are node positions in grid units relative to the evaluation
    point.  Exact for polynomials of degree < len(offsets).
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    if order >= n:
        raise ValueError("need more nodes than derivative order")
    rhs = np.zeros(n)
    rhs[order] = float(math.factorial(order))
    power = np.vander(offsets, n, increasing=True).T  # power[i, j] = offsets[j]**i
    w = np.linalg.solve(power, rhs)
    # Derivative stencils must annihilate constants exactly; fold the solver
    # roundoff into the evaluation-point weight.
    if order >= 1:
        at_zero = int(np.argmin(np.abs(offsets)))
        w[at_zero] -= w.sum()
    return w


def _tables(interior: np.ndarray, edge: list[np.ndarray], order: int) -> tuple:
    """A stencil as _apply applies it: (order, half, centre weight, mirrored taps (k, weight), the ufunc that pairs
    them, edge width, and for real and for complex samples the rows of the left end and those of the right end,
    reversed with the sign (-1)^order folded in).  The complex rows are cast once, as each dot would cast them."""
    half = interior.size // 2
    right = [((-1.0) ** order * e)[::-1] for e in edge]
    rows = (edge, right), tuple([e.astype(complex) for e in end] for end in (edge, right))
    return (order, half, float(interior[half]), [(k, float(interior[half + k])) for k in range(1, half + 1)],
            np.subtract if order % 2 else np.add, edge[0].size, rows)


# 4th-order interior stencils, and one-sided / offset stencils of the same formal order for the two nodes
# nearest each boundary (6 nodes for d2, 5 for d1), built once.
_D1 = _tables(np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, [fd_weights(np.arange(5) - i, 1) for i in range(2)], 1)
_D2 = _tables(np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, [fd_weights(np.arange(6) - i, 2) for i in range(2)], 2)


def _apply(u: np.ndarray, table: tuple, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    order, half, centre, taps, pair, m, rows = table
    left, right = rows[u.dtype.kind == "c"]
    n = u.size
    if n < m:
        raise ValueError("grid too small for the stencil")
    scale = dx ** -order
    out = np.empty_like(u) if out is None else out
    acc = out[half:n - half]
    np.multiply(u[half:n - half], centre * scale, out=acc)
    tap = np.empty_like(acc)
    for k, weight in taps:
        pair(u[half + k:n - half + k], u[half - k:n - half - k], out=tap)
        tap *= weight * scale
        acc += tap
    head, tail = u[:m], u[n - m:]
    for i in range(half):
        out[i] = left[i].dot(head) * scale
        out[n - 1 - i] = right[i].dot(tail) * scale
    return out


def first_derivative(u: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of samples ``u`` on a uniform grid, 4th order."""
    return _apply(u, _D1, dx)


def second_derivative(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """d2/dx2 of samples ``u`` on a uniform grid, 4th order, written into ``out`` when given."""
    return _apply(u, _D2, dx, out)
