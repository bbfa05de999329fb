"""Multiple-scales perturbation theory for dark solitons.

Everything here lives on the slow scale Z = eps*z.  The background magnitude
obeys du_inf/dZ = Im F[u_inf] independently of the soliton; the core
parameters and the shelf plateau amplitudes close through conservation-law
balances that cascade top to bottom:

    u_inf_Z = Im F[u_inf]
    2 B A_Z = Re int F[u0] u0_T* dT
    B_Z     = (u_inf u_inf_Z - A A_Z)/B
    dphi0_Z = (2 A B_Z - 2 B A_Z)/u_inf^2
    sigma0_Z = (B_Z - Im int (F[u_inf] u_inf - F[u0] u0*) dT + Re F[u_inf])/u_inf
    q1+ = (sigma0_Z + dphi0_Z) / (2 (u_inf - A))
    q1- = (sigma0_Z - dphi0_Z) / (2 (u_inf + A))
    phi1t+ = -2 q1+ ,  phi1t- = +2 q1-

Shelf amplitudes are always reported in the positive-magnitude convention;
on the left of a black core the signed representation flips the sign of q1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .perturbations import Perturbation, check_phase_symmetry
from .quadrature import SOLITON_SECH2, SOLITON_TANH, rk4_step, soliton_integrals
from .soliton import CoreParams, profile_with_derivatives


class BackgroundCollapseError(RuntimeError):
    """Background magnitude driven to zero within the requested span."""


SHALLOW_LIMIT = 1e-9  # smallest u_inf - A the cascade accepts
STEPS_PER_Z = 640  # RK4 steps per unit slow distance Z, background and cascade; fixed by a convergence test
SAMPLES = 121  # trajectory samples, each one an RK4 node of the slow scale


class ShallowSolitonError(RuntimeError):
    """u_inf - A below SHALLOW_LIMIT: vanishing soliton, shelf amplitudes blow up."""


@dataclass(frozen=True)
class ShelfParams:
    """Shelf plateau amplitudes and slow parameter rates at one Z sample.

    ``delta_phi1`` is the phase change accumulated across the shelf along a
    trajectory; standalone rate evaluations report 0.
    """

    q1_plus: float
    q1_minus: float
    phi1t_plus: float
    phi1t_minus: float
    u_inf_rate: float
    A_rate: float
    B_rate: float
    delta_phi0_rate: float
    sigma0_rate: float
    delta_phi1: float = 0.0


def edge_phase_flux(params: CoreParams, shelf: ShelfParams) -> float:
    """d(delta_phi1)/dz = (u_inf - A) phi1t+ + (u_inf + A) phi1t-: the shelf's
    phase slopes swept over by edges opening at u_inf -+ A."""
    return (params.u_inf - params.A) * shelf.phi1t_plus + (params.u_inf + params.A) * shelf.phi1t_minus


@dataclass(frozen=True)
class BackgroundTrajectory:
    Z: np.ndarray
    u_inf: np.ndarray


@dataclass(frozen=True)
class ParameterTrajectory:
    """Sampled slow evolution of core and shelf parameters, u_inf at every RK4 node (``background``, which
    the PDE's boundary reads) and the kinematics: comoving origin and shelf edges share one pair of integrals."""

    epsilon: float
    z: np.ndarray
    params: list[CoreParams]
    shelf: list[ShelfParams]
    background: BackgroundTrajectory

    @property
    def Z(self) -> np.ndarray:
        return self.epsilon * self.z

    @cached_property
    def _integrals(self) -> np.ndarray:
        """Rows int_0^z u_inf ds and int_0^z A ds at the samples: cumulative trapezoid, built once."""
        f = np.array([[p.u_inf for p in self.params], [p.A for p in self.params]])
        steps = 0.5 * (f[:, 1:] + f[:, :-1]) * np.diff(self.z)
        return np.hstack((np.zeros((2, 1)), np.cumsum(steps, axis=1)))

    def comoving_shift(self, z: float) -> float:
        """t0 + int_0^z A ds: lab position of the comoving origin."""
        return self.params[0].t0 + float(np.interp(z, self.z, self._integrals[1]))

    def edges(self, z: float) -> tuple[float, float]:
        """Comoving shelf-edge positions (S_L, S_R) = (-int_0^z (u_inf + A) ds,
        int_0^z (u_inf - A) ds); S_L < 0 < S_R for B > 0.  Raises ValueError
        outside the sampled span."""
        if not 0.0 <= z <= self.z[-1] + 1e-12:
            raise ValueError(f"trajectory covers [0, {self.z[-1]}], not z={z}")
        u_int, a_int = (float(np.interp(z, self.z, f)) for f in self._integrals)
        return 0.0 - u_int - a_int, u_int - a_int  # 0.0 - ...: S_L is +0.0, not -0.0, at z = 0


def slow_steps(Z_span: float) -> int:
    """RK4 steps over Z_span: STEPS_PER_Z per unit Z, at least SAMPLES - 1 and a multiple of it."""
    steps = max(SAMPLES - 1, int(STEPS_PER_Z * Z_span))
    return steps - steps % (SAMPLES - 1)


def background_rate(pert: Perturbation, u_inf: float) -> float:
    """du_inf/dZ = Im F[u_inf] on the constant background."""
    return pert.on_background(u_inf).imag


def evolve_background(pert: Perturbation, u_inf0: float, Z_span: float) -> BackgroundTrajectory:
    """Reference RK4 integrator of the background ODE on the cascade's slow_steps(Z_span) nodes.  The package
    never calls it; the tests check the closed forms and ParameterTrajectory.background against it."""
    if u_inf0 <= 0:
        raise ValueError("u_inf0 must be positive")
    steps = slow_steps(Z_span)
    h = Z_span / steps
    u = np.empty(steps + 1)
    u[0] = u_inf0

    def rate(y, _Z):
        return background_rate(pert, y)

    for n in range(steps):
        y_next = rk4_step(rate, u[n], n * h, h, rate(u[n], n * h))
        if y_next <= 0 or not np.isfinite(y_next):
            raise BackgroundCollapseError(f"u_inf reached {y_next} at Z={h * (n + 1):.4g}")
        u[n + 1] = y_next
    return BackgroundTrajectory(Z=np.linspace(0.0, Z_span, steps + 1), u_inf=u)


def _forcing_integrals(pert: Perturbation, params: CoreParams, f_inf: complex) -> tuple[float, float]:
    """(Re int F[u0] u0_T* dT,  Im int (F[u_inf]u_inf - F[u0]u0*) dT), given f_inf = F[u_inf]u_inf.

    Both densities share one evaluation of F on the analytic profile, built
    from the soliton rule's tabulated tanh and sech^2 at its nodes T = s/B.
    The global soliton phase drops out for phase-symmetric forcings, so
    sigma0 = 0 is used.
    """
    B = params.B
    u0 = params.A + 1j * B * SOLITON_TANH
    u0_T = 1j * B**2 * SOLITON_SECH2
    F = pert.point_eval(u0, -2.0 * B * SOLITON_TANH * u0_T)  # u0_TT = -2i B^3 sech^2 tanh
    return tuple(soliton_integrals((np.real(F * np.conj(u0_T)), np.imag(f_inf - F * np.conj(u0))), B))


def check_forcing(pert: Perturbation, params: CoreParams) -> None:
    """The one probe of F on the soliton ``params``, at T in [-5, 5]/B: raises ValueError, naming the forcing,
    when F or the densities F u0_T* and F u0* that the cascade integrates are not finite there (a strength the
    floats cannot carry), or when F is not phase-symmetric."""
    u0, u0_T, u0_TT = profile_with_derivatives(params, np.linspace(-5.0, 5.0, 11) / params.B)
    with np.errstate(over="ignore", invalid="ignore"):
        F = pert.point_eval(u0, u0_TT)
        if not np.isfinite([F * np.conj(u0_T), F * np.conj(u0)]).all():
            raise ValueError(f"forcing {pert.label!r} is not finite on the soliton")
    symmetric, deviation = check_phase_symmetry(pert, u0, u0_TT)
    if not symmetric:
        raise ValueError(f"forcing {pert.label!r} is not phase-symmetric (deviation {deviation:.3g})")


def grey_parameter_rhs(pert: Perturbation, params: CoreParams) -> ShelfParams:
    """One evaluation of the boxed parameter cascade at the given state.

    Solved strictly top to bottom; raises ShallowSolitonError when
    u_inf - A < SHALLOW_LIMIT (the plateau amplitude q1+ diverges as the
    soliton vanishes; the black limit A -> 0 is perfectly regular).
    """
    u, A, B = params.u_inf, params.A, params.B
    if not 0.0 < params.delta_phi0 <= math.pi + 1e-12:
        raise ValueError("delta_phi0 must lie in (0, pi]")
    if u - A < SHALLOW_LIMIT:
        raise ShallowSolitonError(f"u_inf - A = {u - A:.3e}: shallow-soliton breakdown")
    f_bg = pert.on_background(u)
    u_rate = f_bg.imag
    m_i, m_e = _forcing_integrals(pert, params, f_bg * u)
    A_rate = m_i / (2.0 * B)
    B_rate = (u * u_rate - A * A_rate) / B
    dphi0_rate = (2.0 * A * B_rate - 2.0 * B * A_rate) / u**2
    sigma0_rate = (B_rate - m_e + f_bg.real) / u
    q1_plus = 0.5 * (sigma0_rate + dphi0_rate) / (u - A)
    q1_minus = 0.5 * (sigma0_rate - dphi0_rate) / (u + A)
    return ShelfParams(q1_plus=q1_plus, q1_minus=q1_minus, phi1t_plus=-2.0 * q1_plus,
                       phi1t_minus=2.0 * q1_minus, u_inf_rate=u_rate, A_rate=A_rate, B_rate=B_rate,
                       delta_phi0_rate=dphi0_rate, sigma0_rate=sigma0_rate)


def evolve_core_parameters(pert: Perturbation, params0: CoreParams, epsilon: float,
                           z_span: float) -> ParameterTrajectory:
    """RK4 integration of the cascade over Z in [0, eps*z_span], slow_steps(|eps| z_span)
    steps, sampled SAMPLES times; u_inf is kept at every node as the trajectory's background.

    The state is (u_inf, A, sigma0, delta_phi1); B follows from
    A^2 + B^2 = u_inf^2, which therefore holds exactly.  t0 is held at its
    initial value: first-order theory gives it zero drift in the black
    dispersive case and leaves it undetermined otherwise.  A sample records
    the first RK4 stage of the step it starts (4 steps + 1 evaluations).
    eps = 0 is a constant path.  Raises ValueError from check_forcing on the
    initial profile; BackgroundCollapseError when a stage drives u_inf to
    zero or non-finite.
    """
    if epsilon == 0.0:
        z = np.linspace(0.0, z_span, SAMPLES)
        flat = BackgroundTrajectory(0.0 * z, np.full(SAMPLES, params0.u_inf))
        return ParameterTrajectory(0.0, z, [params0] * SAMPLES, [ShelfParams(*(0.0,) * 9)] * SAMPLES, flat)
    check_forcing(pert, params0)
    steps = slow_steps(abs(epsilon) * z_span)
    h = epsilon * z_span / steps  # signed slow-scale step
    stride = steps // (SAMPLES - 1)

    def rate(state, Z):
        u, A, s0, _ = state
        if not 0.0 < u < math.inf:
            raise BackgroundCollapseError(f"u_inf reached {u} at Z={Z:.4g}")
        b2 = u**2 - A**2
        if b2 <= 0:
            raise ShallowSolitonError("A reached u_inf while stepping")
        p = CoreParams(u_inf=u, A=A, B=math.sqrt(b2), t0=params0.t0, sigma0=s0)
        sh = grey_parameter_rhs(pert, p)
        # The edge phase flux is a rate per unit fast distance z = Z/eps.
        return np.array([sh.u_inf_rate, sh.A_rate, sh.sigma0_rate, edge_phase_flux(p, sh) / epsilon]), p, sh

    def stage(state, Z):
        return rate(state, Z)[0]

    state = np.array([params0.u_inf, params0.A, params0.sigma0, 0.0])
    z, params, shelf, u_inf = [], [], [], np.empty(steps + 1)
    for n in range(steps + 1):
        u_inf[n] = state[0]
        k1, p, sh = rate(state, n * h)
        if n % stride == 0:
            z.append(n * h / epsilon)
            params.append(p)
            shelf.append(replace(sh, delta_phi1=float(state[3])))
        if n == steps:
            break
        state = rk4_step(stage, state, n * h, h, k1)
    background = BackgroundTrajectory(np.linspace(0.0, epsilon * z_span, steps + 1), u_inf)
    return ParameterTrajectory(epsilon, np.asarray(z), params, shelf, background)


def phase_conservation_check(traj: ParameterTrajectory) -> float:
    """Max |d/dZ (delta_phi0 + eps*delta_phi1)| along a trajectory.

    With the cascade's plateau values, eps * d(delta_phi1)/dZ equals the
    edge phase flux (see edge_phase_flux), so the residual per sample is
    |delta_phi0_rate + flux|; it vanishes identically whenever
    delta_phi0 is conserved (dispersive and linear damping included).
    """
    if len(traj.params) < 3:
        raise ValueError("need at least 3 trajectory samples")
    return max(abs(sh.delta_phi0_rate + edge_phase_flux(p, sh)) for p, sh in zip(traj.params, traj.shelf))
