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

evolve_core_parameters solves the cascade by Chebyshev collocation on the 16
Lobatto nodes of each segment, all of them evaluated by one call of
grey_parameter_rhs, which takes a batch of states as readily as one: Picard
iteration, with simplified Newton steps on A, whose rate depends on A itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .perturbations import Perturbation, check_phase_symmetry
from .quadrature import SOLITON_SECH2, SOLITON_TANH, QuadratureError, rk4_step, soliton_integrals
from .soliton import CoreParams, profile_with_derivatives


class BackgroundCollapseError(RuntimeError):
    """Background magnitude driven to zero, or the cascade's iteration diverging, within the requested span."""


SHALLOW_LIMIT = 1e-9  # smallest u_inf - A the cascade accepts
STEPS_PER_Z = 640  # background-table intervals per unit slow distance Z; the shortest cascade segment is one
SAMPLES = 121  # trajectory samples, each one a background-table node
MAX_CASCADE_STEPS = 10**6  # background-table intervals of the slow-parameter cascade
_CHUNK = 8  # states per soliton-rule pass: a complex (8, 450) temporary is 57.6 KB, under the 64 KiB free at which
# glibc tests whether to trim the heap top; at 16 (115 KB) each call could trim and regrow it (2,000 faults a predict)


class ShallowSolitonError(RuntimeError):
    """u_inf - A below SHALLOW_LIMIT: vanishing soliton, shelf amplitudes blow up."""


@dataclass(frozen=True, slots=True)
class ShelfParams:
    """Shelf plateau amplitudes and slow parameter rates at one Z sample, or
    arrays of them at a batch of states (see grey_parameter_rhs).

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
    """Sampled slow evolution of core and shelf parameters, u_inf at every background-table node
    (``background``, which the PDE's boundary reads) and the kinematics: comoving origin and shelf edges
    share one pair of integrals."""

    epsilon: float
    z: np.ndarray
    params: _Records  # of CoreParams
    shelf: _Records  # of ShelfParams
    background: BackgroundTrajectory

    @property
    def Z(self) -> np.ndarray:
        return self.epsilon * self.z

    @cached_property
    def _integrals(self) -> np.ndarray:
        """Rows int_0^z u_inf ds and int_0^z A ds at the samples: cumulative trapezoid, built once."""
        f = np.array([self.params.column("u_inf"), self.params.column("A")], dtype=float)
        steps = 0.5 * (f[:, 1:] + f[:, :-1]) * np.diff(self.z)
        return np.hstack((np.zeros((2, 1)), np.cumsum(steps, axis=1)))

    def comoving_shift(self, z: float) -> float:
        """t0 + int_0^z A ds: lab position of the comoving origin."""
        return self.params[0].t0 + float(np.interp(z, self.z, self._integrals[1]))

    def edges(self, z: float | np.ndarray):
        """Comoving shelf-edge positions (S_L, S_R) = (-int_0^z (u_inf + A) ds,
        int_0^z (u_inf - A) ds) at a distance z or an array of them; S_L < 0 < S_R
        for B > 0.  Raises ValueError outside the sampled span."""
        if not np.all((0.0 <= z) & (z <= self.z[-1] + 1e-12)):
            raise ValueError(f"trajectory covers [0, {self.z[-1]}], not z={z}")
        u_int, a_int = (np.interp(z, self.z, f) for f in self._integrals)
        return 0.0 - u_int - a_int, u_int - a_int  # 0.0 - ...: S_L is +0.0, not -0.0, at z = 0


def slow_steps(Z_span: float) -> int:
    """Background-table intervals over Z_span: STEPS_PER_Z per unit Z, at least SAMPLES - 1 and a multiple of it.
    Raises ValueError past MAX_CASCADE_STEPS, also where STEPS_PER_Z Z_span overflows."""
    steps = max(SAMPLES - 1, STEPS_PER_Z * Z_span)
    if steps < math.inf:
        steps = int(steps) - int(steps) % (SAMPLES - 1)
    if not steps <= MAX_CASCADE_STEPS:
        raise ValueError(f"{steps:.3g} cascade steps exceed the bound {MAX_CASCADE_STEPS:.0e}")
    return steps


def background_rate(pert: Perturbation, u_inf: float) -> float:
    """du_inf/dZ = Im F[u_inf] on the constant background."""
    return pert.on_background(u_inf).imag


def evolve_background(pert: Perturbation, u_inf0: float, Z_span: float) -> BackgroundTrajectory:
    """Reference RK4 integrator of the background ODE on the slow_steps(Z_span) table nodes.  The package
    never calls it; the tests check it against the closed forms."""
    if u_inf0 <= 0:
        raise ValueError("u_inf0 must be positive")
    steps = slow_steps(Z_span)
    h = Z_span / steps
    u = np.empty(steps + 1)
    u[0] = u_inf0

    def rate(y, _node=0):
        return background_rate(pert, y)

    for n in range(steps):
        y_next = rk4_step(rate, u[n], h, rate(u[n]))
        if y_next <= 0 or not np.isfinite(y_next):
            raise BackgroundCollapseError(f"u_inf reached {y_next} at Z={h * (n + 1):.4g}")
        u[n + 1] = y_next
    return BackgroundTrajectory(Z=np.linspace(0.0, Z_span, steps + 1), u_inf=u)


def _forcing_integrals(pert: Perturbation, params: CoreParams, f_inf) -> np.ndarray:
    """Rows Re int F[u0] u0_T* dT and Im int (F[u_inf]u_inf - F[u0]u0*) dT, given f_inf = F[u_inf]u_inf,
    one column per state of ``params`` (a scalar state gives the pair alone).

    Both densities share one evaluation of F on the analytic profile, built
    from the soliton rule's tabulated tanh and sech^2 at its nodes T = s/B,
    _CHUNK states at a time.  The global soliton phase drops out for
    phase-symmetric forcings, so sigma0 = 0 is used.
    """
    A, B, f_inf = (np.atleast_1d(v)[:, None] for v in np.broadcast_arrays(params.A, params.B, f_inf))
    out = []
    for i in range(0, len(A), _CHUNK):
        a, b, f = A[i:i + _CHUNK], B[i:i + _CHUNK], f_inf[i:i + _CHUNK]
        tanh, sech2 = b * SOLITON_TANH, b * b * SOLITON_SECH2  # B tanh s and B^2 sech^2 s
        F = pert.point_eval(a + 1j * tanh, -2j * tanh * sech2)  # u0 = A + iB tanh, u0_TT = -2i B^3 sech^2 tanh
        # u0_T = iB^2 sech^2 is imaginary: Re F u0_T* = B^2 sech^2 Im F, and Im F u0* = A Im F - B tanh Re F.
        out.append(soliton_integrals((sech2 * F.imag, f.imag - (a * F.imag - tanh * F.real)), b[:, 0]))
    return np.concatenate(out, axis=1).reshape(2, *np.shape(params.B))


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
    """One evaluation of the boxed parameter cascade at the given state, or at
    every state of a batch (CoreParams of arrays give ShelfParams of arrays).

    Solved strictly top to bottom; raises ShallowSolitonError when
    u_inf - A < SHALLOW_LIMIT (the plateau amplitude q1+ diverges as the
    soliton vanishes; the black limit A -> 0 is perfectly regular).
    """
    u, A, B = params.u_inf, params.A, params.B
    if not np.all((0.0 < params.delta_phi0) & (params.delta_phi0 <= math.pi + 1e-12)):
        raise ValueError("delta_phi0 must lie in (0, pi]")
    if np.any(u - A < SHALLOW_LIMIT):
        raise ShallowSolitonError(f"u_inf - A = {np.min(u - A):.3e}: shallow-soliton breakdown")
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


# Chebyshev collocation on the 16 Lobatto nodes tau_j = cos(theta_j) of [-1, 1], ascending.  _ANTIDERIVATIVE
# takes values at the nodes to the Chebyshev coefficients of the antiderivative from -1 of their interpolant:
# the discrete cosine transform, then int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)).  _AT_NODES evaluates
# such coefficients at the nodes.  Both are closed forms in cosines.
_DEGREE = 15
_THETA = math.pi * np.arange(_DEGREE, -1, -1) / _DEGREE
_NODES = np.cos(_THETA)


def _collocation_tables() -> tuple[np.ndarray, np.ndarray]:
    n, k = _DEGREE, np.arange(_DEGREE + 2)
    at_nodes = np.cos(np.outer(_THETA, k))  # T_k(tau_j), k up to the antiderivative's degree n + 1
    to_coeffs = (2.0 / n) * at_nodes[:, :n + 1].T
    to_coeffs[:, [0, n]] *= 0.5
    to_coeffs[[0, n]] *= 0.5
    integrate = np.zeros((n + 2, n + 1))
    integrate[1, 0] = 1.0
    integrate[k[2:], k[1:-1]] = 1.0 / (2.0 * k[2:])
    integrate[k[1:-2], k[2:-1]] -= 1.0 / (2.0 * k[1:-2])
    integrate[0] = -((-1.0) ** k[1:]) @ integrate[1:]  # zero at tau = -1
    return integrate @ to_coeffs, at_nodes


_ANTIDERIVATIVE, _AT_NODES = _collocation_tables()
_PROBE = 2.0**-20  # step of A in the Newton probe, a power of two so that A -+ _PROBE is exact near |A| = 1
_TOL = 1e-13  # sweep change (Picard or Newton) and Chebyshev tail accepted, relative to max(1, |state|)
_SWEEPS = 32  # sweeps a segment may take, not counting the one Newton probe


def _chebyshev(coeffs: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] T_k(tau) by Clenshaw's recurrence: one row per tau, the columns of ``coeffs``."""
    t = tau.reshape(tau.shape + (1,) * (coeffs.ndim - 1))
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * t * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def _check_background(u: np.ndarray, Z: np.ndarray) -> None:
    collapsed = ~((0.0 < u) & (u < math.inf))
    if collapsed.any():
        i = np.argmax(collapsed)
        raise BackgroundCollapseError(f"u_inf reached {u[i]} at Z={Z[i]:.4g}")


def _states(Y: np.ndarray, t0: float, Z: np.ndarray) -> CoreParams:
    """The cascade states (u_inf, A, sigma0) in the rows of Y as one batch; BackgroundCollapseError
    where u_inf is not positive and finite, ShallowSolitonError where |A| reaches u_inf."""
    u, A, s0 = Y[:, 0], Y[:, 1], Y[:, 2]
    _check_background(u, Z)
    b2 = u * u - A * A
    if not np.all(b2 > 0):
        raise ShallowSolitonError("A reached u_inf while stepping")
    return CoreParams(u_inf=u, A=A, B=np.sqrt(b2), t0=t0, sigma0=s0)


class _Records:
    """The scalar CoreParams or ShelfParams of a batch of n states (a scalar state broadcast to all n), each
    built when it is read, by index or by iteration: a trajectory keeps its samples as arrays, not as objects
    of boxed floats (0.6 MiB per 121 samples).  ``column`` reads a field, or a property such as
    CoreParams.delta_phi0, at every state."""

    def __init__(self, batch, n: int):
        self._fields = [f.name for f in fields(batch)]
        self._batch = replace(batch, **{f: np.broadcast_to(getattr(batch, f), n) for f in self._fields})

    def column(self, name: str) -> np.ndarray:
        return getattr(self._batch, name)

    def __getitem__(self, i: int):
        return type(self._batch)(*(getattr(self._batch, f)[i].item() for f in self._fields))


def _long_tail(D: np.ndarray, *values: np.ndarray) -> bool:
    """Whether the last two Chebyshev coefficients D exceed _TOL of max(1, |values|): the segment is too long
    for 16 nodes to resolve."""
    return np.max(np.abs(D[-2:])) > _TOL * max(1.0, *(np.max(np.abs(v)) for v in values))


def _collocate(rates, y0: np.ndarray, Z0: float, H: float, Y: np.ndarray, newton=False) -> tuple[np.ndarray, ...]:
    """The collocation solution on [Z0, Z0 + H] from y0, by Picard iteration from the node values Y:
    D <- (H/2) _ANTIDERIVATIVE rates(Y, Z), Y <- y0 + _AT_NODES D.  Returns (Y, D); y0 + sum_k D_k T_k
    is the solution's interpolant.  With ``newton``, once a second sweep has not converged, one more call
    of ``rates``, with A (column 1, whose rate depends on itself) stepped toward 0, probes J = d(A rate)/dA at
    the nodes; that sweep and each later one move A by (I - (H/2) _AT_NODES _ANTIDERIVATIVE diag J)^-1 times its
    Picard change.  Raises BackgroundCollapseError when a sweep does not shrink the change of the one before,
    when that Newton matrix is singular or not finite, or after _SWEEPS sweeps."""
    Z, last, solve = Z0 + 0.5 * H * (_NODES + 1.0), math.inf, None
    for sweep in range(_SWEEPS):
        F = rates(Y, Z)
        D = 0.5 * H * (_ANTIDERIVATIVE @ F)
        Y_next = y0 + _AT_NODES @ D
        change = np.max(np.abs(Y_next - Y)) / max(1.0, np.max(np.abs(Y_next)))
        if newton and sweep == 1 and change > _TOL:
            probe = Y.copy()
            probe[:, 1] += np.where(Y[:, 1] > _PROBE, -_PROBE, _PROBE)
            with np.errstate(all="ignore"):
                J = (rates(probe, Z)[:, 1] - F[:, 1]) / (probe[:, 1] - Y[:, 1])
                matrix = np.eye(_NODES.size) - (0.5 * H) * (_AT_NODES @ _ANTIDERIVATIVE) * J
            if not np.isfinite(matrix).all():
                break
            try:
                solve = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:  # singular
                break
        if solve is not None:
            Y_next[:, 1] = Y[:, 1] + solve @ (Y_next[:, 1] - Y[:, 1])
            change = np.max(np.abs(Y_next - Y)) / max(1.0, np.max(np.abs(Y_next)))
        if change <= _TOL:
            return Y_next, D
        if not change < last:
            break
        Y, last = Y_next, change
    raise BackgroundCollapseError(f"the cascade's iteration does not converge on Z in [{Z0:.4g}, {Z0 + H:.4g}]")


def evolve_core_parameters(pert: Perturbation, params0: CoreParams, epsilon: float,
                           z_span: float) -> ParameterTrajectory:
    """The cascade over Z in [0, eps*z_span] by Chebyshev collocation, sampled SAMPLES times on the
    slow_steps(|eps| z_span) + 1 background-table nodes; u_inf is kept at every table node as the
    trajectory's background.

    The state is (u_inf, A, sigma0) and the flux integral int_0^Z edge_phase_flux dZ', which is
    delta_phi1 times eps; B follows from A^2 + B^2 = u_inf^2, which therefore holds exactly.  t0 is
    held at its initial value: first-order theory gives it zero drift in the black dispersive case and
    leaves it undetermined otherwise.  Each segment is a whole number of table intervals, solved on
    16 Lobatto nodes (_collocate) and read off its interpolant at the table nodes it covers.  The first
    segment is the whole span; a segment halves when its iteration stops contracting, a state leaves
    the valid region (see _states, grey_parameter_rhs and soliton_integrals) or the last two
    Chebyshev coefficients exceed the tolerance (_long_tail), and the next one doubles.  The tail is
    tested twice: on the background column, solved first, against max(1, |u_inf|, |segment's initial
    state|), so that a segment too long for the background is halved before its four-column solve;
    then on all four columns.  A one-interval segment needs no interior read-off and takes no tail
    test; a failure there raises, and the samples' rates come from one batched evaluation at the end.
    eps = 0 is a constant path.  Raises ValueError from check_forcing on the initial profile.
    """
    if epsilon == 0.0:
        z = np.linspace(0.0, z_span, SAMPLES)
        flat = BackgroundTrajectory(0.0 * z, np.full(SAMPLES, params0.u_inf))
        shelf = _Records(ShelfParams(*(0.0,) * 9), SAMPLES)
        return ParameterTrajectory(0.0, z, _Records(params0, SAMPLES), shelf, flat)
    check_forcing(pert, params0)
    steps = slow_steps(abs(epsilon) * z_span)
    h = epsilon * z_span / steps  # signed table interval
    stride = steps // (SAMPLES - 1)

    def background(Y, Z):
        _check_background(Y[:, 0], Z)
        return background_rate(pert, Y)

    def rates(Y, Z):
        p = _states(Y, params0.t0, Z)
        sh = grey_parameter_rhs(pert, p)
        return np.column_stack(np.broadcast_arrays(sh.u_inf_rate, sh.A_rate, sh.sigma0_rate,
                                                   edge_phase_flux(p, sh)))

    def segment(y0, Z0, H, tail_test):
        """(Y, D) on [Z0, Z0 + H], or None where ``tail_test`` finds a long tail.  The background column
        converges first, since it depends on nothing else, and has its tail tested; then all four, from A at
        A0 u_inf/u_inf0 on its nodes (exact under linear damping, which keeps A/u_inf fixed)."""
        u, D = _collocate(background, y0[:1], Z0, H, np.full((_NODES.size, 1), y0[0]))
        if tail_test and _long_tail(D, u, y0):
            return None
        start = np.column_stack((u, u * (y0[1] / y0[0]), np.tile(y0[2:], (_NODES.size, 1))))
        Y, D = _collocate(rates, y0, Z0, H, start, newton=True)
        return None if tail_test and _long_tail(D, Y) else (Y, D)

    state = np.array([params0.u_inf, params0.A, params0.sigma0, 0.0])
    u_inf, samples = np.empty(steps + 1), np.empty((SAMPLES, 4))
    u_inf[0], samples[0] = state[0], state
    n, length = 0, steps
    while n < steps:
        length = min(length, steps - n)
        try:
            solved = segment(state, n * h, length * h, tail_test=length > 1)
        except (BackgroundCollapseError, ShallowSolitonError, QuadratureError):
            if length == 1:
                raise
            solved = None
        if solved is None:
            length //= 2
            continue
        Y, D = solved
        tau = np.arange(1, length + 1) * (2.0 / length) - 1.0  # table nodes n + 1 .. n + length
        u_inf[n + 1:n + length + 1] = state[0] + _chebyshev(D[:, 0], tau)
        k = np.arange(n // stride + 1, (n + length) // stride + 1)  # the samples among them
        samples[k] = state + _chebyshev(D, tau[k * stride - n - 1])
        state, n, length = Y[-1], n + length, 2 * length
    z = np.arange(0, steps + 1, stride) * h / epsilon
    p = _states(samples, params0.t0, epsilon * z)
    sh = replace(grey_parameter_rhs(pert, p), delta_phi1=samples[:, 3] / epsilon)
    background = BackgroundTrajectory(np.linspace(0.0, epsilon * z_span, steps + 1), u_inf)
    return ParameterTrajectory(epsilon, z, _Records(p, SAMPLES), _Records(sh, SAMPLES), background)


def phase_conservation_check(traj: ParameterTrajectory) -> float:
    """Max |d/dZ (delta_phi0 + eps*delta_phi1)| along a trajectory.

    With the cascade's plateau values, eps * d(delta_phi1)/dZ equals the
    edge phase flux (see edge_phase_flux), so the residual per sample is
    |delta_phi0_rate + flux|; it vanishes identically whenever
    delta_phi0 is conserved (dispersive and linear damping included).
    """
    if traj.z.size < 3:
        raise ValueError("need at least 3 trajectory samples")
    return max(abs(sh.delta_phi0_rate + edge_phase_flux(p, sh)) for p, sh in zip(traj.params, traj.shelf))
