"""Exact dark/grey soliton profiles and core-parameter algebra.

The defocusing NLS kernel used throughout is the background-phase-removed
form

    i u_z - (1/2) u_tt + (|u|^2 - u_inf^2) u = eps F[u]

whose unperturbed soliton is u = (A + i B tanh(B (t - A z - t0))) e^{i sigma0}
with A^2 + B^2 = u_inf^2.  Two magnitude conventions coexist: grey profiles
use a positive magnitude q0 > 0, black profiles (A = 0) use the signed
representation q0 = u_inf tanh(.), which passes through zero.  Every routine
states which one it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REL_TOL = 1e-12
_INVALID = ("u_inf must be positive and finite", "B must be non-negative", "|A| must not exceed u_inf",
            "A^2 + B^2 = u_inf^2 violated beyond 1e-12")


class InvalidParamsError(ValueError):
    """Core-parameter invariants violated."""


@dataclass(frozen=True, slots=True)
class CoreParams:
    """Slowly varying soliton and background parameters.

    A is the soliton velocity (grey depth parameter), B the inverse width
    (darkness), t0 the position offset and sigma0 the soliton phase.  The
    core phase change delta_phi0 and ``is_black`` are derived from A and B.
    The fields may also be equal-length arrays, one state per entry: the
    slow-parameter cascade evaluates a batch of states at once.
    """

    u_inf: float
    A: float
    B: float
    t0: float = 0.0
    sigma0: float = 0.0

    def __post_init__(self):
        # Each test is a bool for a scalar state and an array for a batch; one np.asarray(...).all()
        # passes a valid state.
        u, A, B = self.u_inf, self.A, self.B
        tests = ((0.0 < u) & (u < math.inf), B >= 0, abs(A) <= u * (1 + _REL_TOL),
                 abs(A**2 + B**2 - u**2) <= _REL_TOL * u**2)
        if not np.asarray(tests[0] & tests[1] & tests[2] & tests[3]).all():
            raise InvalidParamsError(next(message for message, ok in zip(_INVALID, tests) if not np.asarray(ok).all()))

    @classmethod
    def from_background(
        cls, u_inf: float, delta_phi0: float, t0: float = 0.0, sigma0: float = 0.0
    ) -> "CoreParams":
        """Build params from the background magnitude and core phase change."""
        A, B = ab_from_background(u_inf, delta_phi0)
        return cls(u_inf=u_inf, A=A, B=B, t0=t0, sigma0=sigma0)

    @property
    def delta_phi0(self) -> float:
        """Phase change across the core, 2 atan2(B, A): exactly pi when black, as atan2(B, 0) is pi/2."""
        return 2.0 * np.arctan2(self.B, self.A)

    @property
    def is_black(self) -> bool:
        return self.A == 0.0


@dataclass(frozen=True)
class ConservedQuantities:
    """Hamiltonian, energy, momentum and center of energy of a dark pulse."""

    H: float
    E: float
    I: float
    R: float


def ab_from_background(u_inf: float, delta_phi0: float) -> tuple[float, float]:
    """(A, B) from the background magnitude and phase change across the core.

    A = u_inf cos(delta_phi0/2), B = u_inf sin(delta_phi0/2); the black limit
    delta_phi0 = pi returns exactly (0, u_inf).
    """
    if u_inf <= 0:
        raise ValueError("u_inf must be positive")
    if not 0.0 < delta_phi0 <= math.pi:
        raise ValueError("delta_phi0 must lie in (0, pi]")
    if delta_phi0 == math.pi:
        return 0.0, u_inf
    half = 0.5 * delta_phi0
    return u_inf * math.cos(half), u_inf * math.sin(half)


def grey_profile(params: CoreParams, T) -> np.ndarray | complex:
    """Unperturbed soliton field at comoving offset T.

    Grey solitons (A != 0) return q0 e^{i phi0} with q0 > 0; the black case
    returns the signed form u_inf tanh(B T) e^{i sigma0}.  Both equal
    (A + i B tanh(B T)) e^{i sigma0} up to the phase convention, and the
    black output is real up to the global phase (signed q0).
    """
    scalar = np.isscalar(T)
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T)):
        raise ValueError("T must be finite")
    if params.B <= 0:
        raise InvalidParamsError("B must be positive (constant wave is degenerate)")
    tau = np.tanh(params.B * T)
    if params.is_black:
        out = params.u_inf * tau * np.exp(1j * params.sigma0)
    else:
        out = (params.A + 1j * params.B * tau) * np.exp(1j * params.sigma0)
    return complex(out) if scalar else out


def profile_with_derivatives(params: CoreParams, T):
    """(u0, u0_T, u0_TT) of the complex soliton form (A + iB tanh) e^{i sigma0}, smooth for every A
    including the black limit: the profile on which asymptotics.check_forcing probes F."""
    T = np.asarray(T, dtype=float)
    B = params.B
    tau = np.tanh(B * T)
    sech2 = 1.0 / np.cosh(B * T) ** 2
    rot = np.exp(1j * params.sigma0)
    u0 = (params.A + 1j * B * tau) * rot
    u0_T = 1j * B**2 * sech2 * rot
    u0_TT = -2j * B**3 * sech2 * tau * rot
    return u0, u0_T, u0_TT
