"""Forcing functionals F[u] for the perturbed defocusing NLS.

A Perturbation bundles a grid evaluator (sampled fields, finite-difference
derivatives) with a pointwise evaluator usable inside analytic quadratures,
plus a claimed phase symmetry F[u e^{i theta}] = F[u] e^{i theta}.  The
perturbation strength eps is deliberately not stored here; it belongs to the
simulation / asymptotics configuration so one functional serves many eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finitediff import second_derivative

PointEval = Callable[[complex, complex, complex], complex]


@dataclass(frozen=True)
class Perturbation:
    """Uniform representation of a forcing functional F[u].

    ``grid_eval(u, dx, u_tt=None)`` evaluates F on complex samples; a
    precomputed second derivative may be passed to avoid recomputing the
    stencil.  ``point_eval(u, u_t, u_tt)`` evaluates F at a point when the
    functional is local in these arguments.
    """

    label: str
    phase_symmetric: bool
    grid_eval: Callable[..., np.ndarray]
    point_eval: PointEval | None = None

    def on_background(self, u_inf: float) -> complex:
        """F evaluated on the constant background u = u_inf (real phase)."""
        if self.point_eval is None:
            raise ValueError(f"{self.label} has no pointwise form")
        return self.point_eval(complex(u_inf), 0.0, 0.0)


def dispersive_damping(gamma: float) -> Perturbation:
    """F[u] = i gamma u_tt with gamma > 0 (dissipative dispersive forcing)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def on_grid(u, dx, u_tt=None):
        if u_tt is None:
            u_tt = second_derivative(u, dx)
        return 1j * gamma * u_tt

    return Perturbation(
        label="dispersive_damping",
        phase_symmetric=True,
        grid_eval=on_grid,
        point_eval=lambda u, u_t, u_tt: 1j * gamma * u_tt,
    )


def linear_damping(Gamma: float) -> Perturbation:
    """F[u] = -i Gamma u (linear loss), Gamma > 0."""
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    return Perturbation(
        label="linear_damping",
        phase_symmetric=True,
        grid_eval=lambda u, dx, u_tt=None: -1j * Gamma * np.asarray(u),
        point_eval=lambda u, u_t, u_tt: -1j * Gamma * u,
    )


def two_photon(gamma3: float) -> Perturbation:
    """F[u] = -i gamma3 |u|^2 u (two-photon absorption), gamma3 > 0."""
    if gamma3 <= 0:
        raise ValueError("gamma3 must be positive")

    def on_grid(u, dx, u_tt=None):
        u = np.asarray(u)
        return -1j * gamma3 * np.abs(u) ** 2 * u

    return Perturbation(
        label="two_photon",
        phase_symmetric=True,
        grid_eval=on_grid,
        point_eval=lambda u, u_t, u_tt: -1j * gamma3 * abs(u) ** 2 * u,
    )


BUILTINS = {
    "dispersive_damping": dispersive_damping,
    "linear_damping": linear_damping,
    "two_photon": two_photon,
}

_THETA_SAMPLES = (0.3, 1.1, 2.7)


def check_phase_symmetry(
    pert: Perturbation,
    test_fields: list[np.ndarray],
    dx: float,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Verify F[u e^{i theta}] = F[u] e^{i theta} on sampled test fields.

    Returns (ok, max deviation) where the deviation is the sup norm over the
    fields and theta in {0.3, 1.1, 2.7}.
    """
    if not test_fields:
        raise ValueError("need at least one test field")
    worst = 0.0
    for u in test_fields:
        u = np.asarray(u, dtype=complex)
        base = pert.grid_eval(u, dx)
        for theta in _THETA_SAMPLES:
            rot = np.exp(1j * theta)
            dev = np.max(np.abs(pert.grid_eval(u * rot, dx) - base * rot))
            worst = max(worst, float(dev))
    return worst < tol, worst
