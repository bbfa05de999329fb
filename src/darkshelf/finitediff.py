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


# 4th-order interior stencils.
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

# One-sided / offset stencils for the two nodes nearest each boundary,
# same formal order as the interior (6 nodes for d2, 5 for d1).
_E2 = [fd_weights(np.arange(6) - i, 2) for i in range(2)]
_E1 = [fd_weights(np.arange(5) - i, 1) for i in range(2)]


def _apply(u: np.ndarray, interior: np.ndarray, edge: list[np.ndarray], dx: float, order: int,
           out: np.ndarray | None = None) -> np.ndarray:
    u = np.asarray(u)
    n = u.size
    half = interior.size // 2
    if n < max(interior.size, edge[0].size):
        raise ValueError("grid too small for the stencil")
    scale = dx ** -order
    pair = np.subtract if order % 2 else np.add  # mirrored interior taps share |weight|
    out = np.empty_like(u) if out is None else out
    acc = out[half:n - half]
    np.multiply(u[half:n - half], interior[half] * scale, out=acc)
    tap = np.empty_like(acc)
    for k in range(1, half + 1):
        pair(u[half + k:n - half + k], u[half - k:n - half - k], out=tap)
        tap *= interior[half + k] * scale
        acc += tap
    m = edge[0].size
    head, tail = u[:m], u[n - m:]
    for i in range(half):
        out[i] = np.dot(edge[i], head) * scale
        out[n - 1 - i] = np.dot(edge[i][::-1], tail) * (scale * (-1.0) ** order)
    return out


def first_derivative(u: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of samples ``u`` on a uniform grid, 4th order."""
    return _apply(u, _C1, _E1, dx, 1)


def second_derivative(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """d2/dx2 of samples ``u`` on a uniform grid, 4th order, written into ``out`` when given."""
    return _apply(u, _C2, _E2, dx, 2, out)
