"""Forcing functionals F[u] for the perturbed defocusing NLS.

Each built-in states F once, as a local formula ``F(u, u_tt)`` that works on
scalars and arrays alike.  ``local_forcing`` turns such a formula into a
Perturbation whose pointwise evaluator (used inside the analytic quadratures
of the cascade) and grid evaluator (used by the PDE stepper, which passes its
finite-difference u_tt) are both the formula itself.  The perturbation
strength eps is deliberately not stored here; it belongs to the simulation /
asymptotics configuration so one functional serves many eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Perturbation:
    """Uniform representation of a forcing functional F[u].

    ``point_eval(u, u_tt)`` evaluates F from the field and its second
    derivative; ``grid_eval(u, u_tt)`` evaluates F on complex grid samples
    and their sampled second derivative.  The two are separate fields so
    that grid evaluations can be wrapped or counted apart from the cascade's.
    The theory assumes phase symmetry, F[u e^{i theta}] = F[u] e^{i theta};
    ``check_phase_symmetry`` tests it, and the cascade calls it on entry.
    """

    label: str
    grid_eval: Callable[..., np.ndarray]
    point_eval: Callable

    def on_background(self, u_inf: float) -> complex:
        """F evaluated on the constant background u = u_inf (real phase), or on each of an array of them."""
        return self.point_eval(u_inf + 0j, 0.0 * u_inf)


def local_forcing(label: str, formula: Callable) -> Perturbation:
    """Perturbation from a local formula F(u, u_tt)."""
    return Perturbation(label=label, grid_eval=formula, point_eval=formula)


def dispersive_damping(gamma: float) -> Perturbation:
    """F[u] = i gamma u_tt with gamma > 0 (dissipative dispersive forcing)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return local_forcing("dispersive_damping", lambda u, u_tt: 1j * gamma * u_tt)


def linear_damping(Gamma: float) -> Perturbation:
    """F[u] = -i Gamma u (linear loss), Gamma > 0."""
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    return local_forcing("linear_damping", lambda u, u_tt: -1j * Gamma * u)


def two_photon(gamma3: float) -> Perturbation:
    """F[u] = -i gamma3 |u|^2 u (two-photon absorption), gamma3 > 0."""
    if gamma3 <= 0:
        raise ValueError("gamma3 must be positive")
    return local_forcing("two_photon", lambda u, u_tt: -1j * gamma3 * abs(u) ** 2 * u)


BUILTINS = {
    "dispersive_damping": dispersive_damping,
    "linear_damping": linear_damping,
    "two_photon": two_photon,
}

_THETA_SAMPLES = (0.3, 1.1, 2.7)
_SYMMETRY_TOL = 1e-10  # deviation allowed, relative to max |F[u]|


def check_phase_symmetry(pert: Perturbation, u, u_tt) -> tuple[bool, float]:
    """Verify F[u e^{i theta}] = F[u] e^{i theta} with the pointwise evaluator.

    ``u`` and ``u_tt`` sample one field and its second derivative; both are
    rotated by theta in {0.3, 1.1, 2.7}.  Returns (ok, max deviation), where
    ok means the sup-norm deviation is at most 1e-10 of max |F[u]|, or is
    subnormal rounding (below the smallest normal float).
    """
    u, u_tt = np.asarray(u, dtype=complex), np.asarray(u_tt, dtype=complex)
    if u.size == 0:
        raise ValueError("need at least one test sample")
    base = pert.point_eval(u, u_tt)
    worst = 0.0
    for theta in _THETA_SAMPLES:
        rot = np.exp(1j * theta)
        worst = max(worst, float(np.max(np.abs(pert.point_eval(u * rot, u_tt * rot) - base * rot))))
    return worst <= max(_SYMMETRY_TOL * float(np.max(np.abs(base))), np.finfo(float).tiny), worst
