"""Direct integration of the background-phase-removed perturbed NLS.

Method of lines from the exact soliton: 4th-order central Laplacian (one-sided
at the edges), classical RK4 in z at 3/4 of its stability limit, snapshots on
the exact grid k z_max / n_snap, and Dirichlet boundary values pinned to the
adiabatically evolving background; the edges' reach t0 +- int u_inf dz is
checked before the first step.  The field carries the soliton phase jump, so it
is not periodic.  The grid is cell-centered and symmetric about t = 0, so the
discrete odd symmetry of a black soliton is exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import ParameterTrajectory, background_rate
from .finitediff import first_derivative, second_derivative
from .perturbations import Perturbation
from .quadrature import rk4_step
from .soliton import ConservedQuantities, CoreParams, grey_profile

D2_SPECTRAL_RADIUS = 16.0 / 3.0  # dt^2 max |eigenvalue| of D2 without its pinned rows (all real, <= 0)
RK4_IMAGINARY_LIMIT = 2.0 * math.sqrt(2.0)  # RK4 is stable on the imaginary axis to |dz lambda| = 2 sqrt 2
STABILITY_MARGIN = 0.75  # fraction taken of the limit dz <= 1.0607 dt^2 that -i/2 D2 sets
DZ_PER_DT2 = STABILITY_MARGIN * RK4_IMAGINARY_LIMIT / (0.5 * D2_SPECTRAL_RADIUS)
# That step keeps the Bogoliubov modes sqrt(a (a + 2 u_inf^2)), a = 8/(3 dt^2), stable while u_inf dt <= 1.0184.
MAX_UINF_DT = math.sqrt((1.0 / STABILITY_MARGIN**2 - 1.0) * D2_SPECTRAL_RADIUS / 4.0)
MAX_STEP_GROWTH = 1.0 + 1e-12  # step_growth allowed: 1 up to the rounding of the RK4 polynomial
MIN_PLATEAU_POINTS = 20  # samples a shelf plateau window must hold
EDGE_LEVEL = 0.25  # fraction of the plateau deviation marking a tracked edge
FMT = "{:.17g}"  # CSV number format: round-trips every float64


class SimulationError(RuntimeError):
    pass


class StabilityError(SimulationError):
    pass


class BoundaryContaminationError(SimulationError):
    pass


class MeasurementError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on (-L, L) with spacing dt = 2L/N."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 256:
            raise ValueError("n_points must be at least 256")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def dt(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def t(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.n_points) + 0.5) * self.dt


@dataclass(frozen=True)
class FieldState:
    """Complex field samples at propagation distance z (lab frame)."""

    z: float
    samples: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    epsilon: float = 0.0
    perturbation: Perturbation | None = None
    snapshot_dz: float = 0.5

    def __post_init__(self):
        if self.epsilon != 0.0 and self.perturbation is None:
            raise ValueError("epsilon != 0 requires a perturbation")

    def resolve(self, grid: Grid, z_max: float) -> tuple[float, int, int]:
        """(dz, n_snap * stride, stride): n_snap = z_max / snapshot_dz rounded, at most the fewest steps
        (at least one) with dz <= DZ_PER_DT2 dt^2, and the fewest steps per interval.  Kept z: k z_max / n_snap."""
        fewest = max(1, math.ceil(z_max / (DZ_PER_DT2 * grid.dt**2)))
        n_snap = max(1, round(min(z_max / self.snapshot_dz, fewest)))
        stride = -(-fewest // n_snap)
        return z_max / (n_snap * stride), n_snap * stride, stride


@dataclass(frozen=True)
class SimBackground:
    """Adiabatic background seen by the simulator: u_inf(z) and its rate.

    Boundary phases are constant in the background-phase-removed frame for
    forcings with Re F[u_inf] = 0, which ``from_perturbation`` checks.
    """

    u_inf_fn: Callable[[float], float]
    rate_fn: Callable[[float], float]

    @classmethod
    def constant(cls, u_inf: float) -> "SimBackground":
        return cls(u_inf_fn=lambda z: u_inf, rate_fn=lambda z: 0.0)

    @classmethod
    def from_perturbation(cls, pert: Perturbation, traj: ParameterTrajectory) -> "SimBackground":
        """The cascade's background: u_inf_fn interpolates traj.background, u_inf at every RK4
        node, at z = Z/eps, and du_inf/dz = eps Im F[u_inf], eps > 0 (eps = 0 is ``constant``).

        eps, u_inf(0) and the span are the trajectory's, so the boundary cannot disagree with the
        prediction.  Raises ValueError unless eps > 0, and, naming the forcing, unless
        Re F[u_inf(0)] = 0 to 1e-12 relative: otherwise the boundary phases would rotate.
        """
        epsilon, u_inf0 = traj.epsilon, traj.params[0].u_inf
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        f_bg = pert.on_background(u_inf0)
        if abs(f_bg.real) > 1e-12 * abs(f_bg):
            raise ValueError(f"forcing {pert.label!r}: Re F[u_inf] = {f_bg.real:.3g} != 0 on the background")
        zs, u_inf = traj.background.Z / epsilon, traj.background.u_inf

        def u_inf_fn(z: float) -> float:
            return float(np.interp(z, zs, u_inf))

        def rate_fn(z: float) -> float:
            return epsilon * background_rate(pert, u_inf_fn(z))

        return cls(u_inf_fn=u_inf_fn, rate_fn=rate_fn)


def step_growth(damping: float, uinf_dt: float) -> float:
    """The largest |R(dz lambda)| of one RK4 step at dz = DZ_PER_DT2 dt^2, R the RK4 polynomial.

    lambda runs over the PDE linearized about the background u_inf with a u_tt term of coefficient
    ``damping`` (eps Im F(0, 1)): -2 damping a +- i sqrt(a (a + 2 u_inf^2)), a = -eig(D2)/2 in
    [0, 8/3] dt^-2.  The step holds while this is at most 1, as it is at damping = 0 for every
    u_inf dt <= MAX_UINF_DT; it is inf or nan where the damping overflows it.
    """
    s = np.linspace(0.0, 0.5 * D2_SPECTRAL_RADIUS, 65)  # a dt^2
    with np.errstate(over="ignore", invalid="ignore"):
        x = DZ_PER_DT2 * (-2.0 * damping * s + 1j * np.sqrt(s * (s + 2.0 * uinf_dt**2)))
        return float(np.max(np.abs(1.0 + x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))))))


def nls_rate(u: np.ndarray, dt: float, u_inf: float, epsilon: float,
             pert: Perturbation | None) -> tuple[np.ndarray, np.ndarray | None]:
    """(u_z, F[u]) of the perturbed NLS on a grid of spacing dt:

        u_z = -i (1/2 u_tt - (|u|^2 - u_inf^2) u + eps F[u])

    F is evaluated (and added) only when eps != 0; it is None otherwise.
    ``run`` overwrites the boundary rows with the background's rate.
    """
    u_tt = second_derivative(u, dt)
    total = 0.5 * u_tt - (u.real**2 + u.imag**2 - u_inf**2) * u
    F = None
    if epsilon != 0.0:
        F = pert.grid_eval(u, u_tt)
        total = total + epsilon * F
    return -1j * total, F


def run(
    config: SimConfig,
    grid: Grid,
    params: CoreParams,
    background: SimBackground,
    z_max: float,
) -> list[FieldState]:
    """Integrate the exact soliton ``params`` (signed black form when A = 0) from z = 0 to
    z_max in the lab frame, returning snapshots every ``stride`` steps (see resolve), kept
    at z = k z_max / n_snap, the last at z_max.

    Raises BoundaryContaminationError before the first step when the shelf edges' reach
    |t0| + sum_n dz u_inf(n dz) passes 0.9 L, and StabilityError on norm blow-up.
    """
    if grid.half_width < 3.0 * params.u_inf * z_max:
        raise ValueError(
            f"half_width {grid.half_width} < 3 u_inf z_max = {3 * params.u_inf * z_max}: "
            "shelf edges must stay within the inner third of the domain"
        )
    dz, n_steps, stride = config.resolve(grid, z_max)
    reach = abs(params.t0) + sum(dz * background.u_inf_fn(n * dz) for n in range(n_steps))
    if reach > 0.9 * grid.half_width:
        raise BoundaryContaminationError(f"shelf edges reach {reach:.4g} by z={z_max:.3g}, "
                                         "within L/10 of the boundary")
    dt = grid.dt
    eps = config.epsilon
    pert = config.perturbation

    u = grey_profile(params, grid.t - params.t0)
    bc_unit_left = u[0] / params.u_inf
    bc_unit_right = u[-1] / params.u_inf

    def rhs(f: np.ndarray, z: float) -> np.ndarray:
        w, _ = nls_rate(f, dt, background.u_inf_fn(z), eps, pert)
        rate = background.rate_fn(z)
        w[0] = rate * bc_unit_left
        w[-1] = rate * bc_unit_right
        return w

    max0 = float(np.max(np.abs(u)))
    snapshots = [FieldState(z=0.0, samples=u.copy())]
    z = 0.0
    n_snap = n_steps // stride
    for k in range(1, n_snap + 1):
        for n in range((k - 1) * stride, k * stride):
            u = rk4_step(rhs, u, z, dz, rhs(u, z))
            z = (n + 1) * dz
            uinf = background.u_inf_fn(z)
            u[0] = uinf * bc_unit_left
            u[-1] = uinf * bc_unit_right
        peak = float(np.max(np.abs(u)))
        if not np.isfinite(peak) or peak > 10.0 * max0:
            raise StabilityError(f"norm grew to {peak:.3e} at z={z:.3f}")
        snapshots.append(FieldState(z=z_max if k == n_snap else k * z_max / n_snap, samples=u.copy()))
    return snapshots


# -- Diagnostics ------------------------------------------------------------


def conserved_quantities(state: FieldState, grid: Grid, u_inf: float) -> ConservedQuantities:
    """Trapezoid-rule H, E, I, R of a sampled field against background u_inf."""
    u = state.samples
    t = grid.t
    u_t = first_derivative(u, grid.dt)
    dip = u_inf**2 - np.abs(u) ** 2
    H = float(np.trapezoid(0.5 * np.abs(u_t) ** 2 + 0.5 * dip**2, dx=grid.dt))
    E = float(np.trapezoid(dip, dx=grid.dt))
    momentum = float(np.trapezoid(np.imag(u * np.conj(u_t)), dx=grid.dt))
    R = float(np.trapezoid(t * dip, dx=grid.dt))
    return ConservedQuantities(H=H, E=E, I=momentum, R=R)


def conservation_residuals(
    snapshots: Sequence[FieldState],
    grid: Grid,
    config: SimConfig,
    background: SimBackground,
) -> dict[str, float]:
    """Residuals of the perturbed evolution laws across the snapshot series.

    Centered differences of H, E, I, R in z are compared against

        dH/dz = E d(u_inf^2)/dz + 2 eps Re int F[u] u_z* dt
        dE/dz = 2 eps Im int (F[u_inf] u_inf - F[u] u*) dt
        dI/dz = -2 eps Re int F[u] u_t* dt
        dR/dz = -I + 2 eps Im int t (F[u_inf] u_inf - F[u] u*) dt

    with u_z from the equation of motion the stepper integrates (nls_rate).
    Each law's residual is max_k |lhs - rhs| / max(1, |lhs|, |rhs|).
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    eps = config.epsilon
    pert = config.perturbation
    t = grid.t
    zs = np.array([s.z for s in snapshots])
    q = [conserved_quantities(s, grid, background.u_inf_fn(s.z)) for s in snapshots]
    series = {name: np.array([getattr(c, name) for c in q]) for name in "HEIR"}
    resid = {name: [] for name in "HEIR"}
    for k in range(1, len(snapshots) - 1):
        dzk = zs[k + 1] - zs[k - 1]
        lhs = {name: (series[name][k + 1] - series[name][k - 1]) / dzk for name in "HEIR"}
        s = snapshots[k]
        u = s.samples
        uinf = background.u_inf_fn(s.z)
        u_t = first_derivative(u, grid.dt)
        if eps != 0.0:
            u_z, F = nls_rate(u, grid.dt, uinf, eps, pert)
            f_bg = pert.on_background(uinf) * uinf
            rhs_H = 2.0 * uinf * background.rate_fn(s.z) * series["E"][k] + 2.0 * eps * float(
                np.trapezoid(np.real(F * np.conj(u_z)), dx=grid.dt)
            )
            rhs_E = 2.0 * eps * float(np.trapezoid(np.imag(f_bg - F * np.conj(u)), dx=grid.dt))
            rhs_I = -2.0 * eps * float(np.trapezoid(np.real(F * np.conj(u_t)), dx=grid.dt))
            rhs_R = -series["I"][k] + 2.0 * eps * float(
                np.trapezoid(t * np.imag(f_bg - F * np.conj(u)), dx=grid.dt)
            )
        else:
            rhs_H = rhs_E = rhs_I = 0.0
            rhs_R = -series["I"][k]
        for name, rhs_val in zip("HEIR", (rhs_H, rhs_E, rhs_I, rhs_R)):
            scale = max(1.0, abs(lhs[name]), abs(rhs_val))
            resid[name].append(abs(lhs[name] - rhs_val) / scale)
    return {name: float(np.max(resid[name])) for name in "HEIR"}


def measure_shelf(snapshot: FieldState, grid: Grid, comoving_shift: Callable[[float], float],
                  window: tuple[float, float], epsilon: float, u_inf: float) -> tuple[float, float, bool]:
    """(q1, phi1t, flat) of the plateau over the comoving window [lo, hi].

    ``comoving_shift(z)`` is the lab position of the comoving origin.  q1 is
    (|u| - u_inf)/eps averaged over the window, phi1t the least-squares
    phase slope over it divided by eps, and ``flat`` is False when the
    deviation's std exceeds 25% of |q1|.  Raises MeasurementError when fewer
    than MIN_PLATEAU_POINTS samples fall in the window.
    """
    if epsilon == 0.0:
        raise ValueError("shelf measurement requires epsilon != 0")
    lo, hi = window
    T = grid.t - comoving_shift(snapshot.z)
    mask = (T >= lo) & (T <= hi)
    if (n := int(mask.sum())) < MIN_PLATEAU_POINTS:
        raise MeasurementError(f"plateau window [{lo:.2f}, {hi:.2f}] holds {n} points (< {MIN_PLATEAU_POINTS})")
    dev = (np.abs(snapshot.samples[mask]) - u_inf) / epsilon
    q1 = float(np.mean(dev))
    phase = np.unwrap(np.angle(snapshot.samples))[mask]
    return q1, float(np.polyfit(T[mask], phase, 1)[0]) / epsilon, bool(np.std(dev) <= 0.25 * abs(q1))


def _edge_crossing(T: np.ndarray, dev: np.ndarray, plateau: float, start: float, sign: int) -> float:
    """First crossing of EDGE_LEVEL times the plateau level outward from ``start``.

    ``sign`` +1 scans toward +T, -1 toward -T along the increasing ``T``.
    The deviation is folded so the plateau is positive; the edge is where it
    first drops through the level, linearly interpolated between samples.
    """
    if plateau == 0.0:
        raise MeasurementError("zero plateau value; no edge level to cross")
    fold = -1.0 if plateau < 0 else 1.0
    Ts = T[::sign]
    ds = fold * dev[::sign]
    lv = EDGE_LEVEL * abs(plateau)
    k0 = int(np.searchsorted(sign * Ts, sign * start))
    cand = np.where(ds[k0:] < lv)[0]
    if cand.size == 0:
        raise MeasurementError("no edge crossing found before the boundary")
    j = k0 + int(cand[0])
    if j == 0:
        return float(Ts[0])
    x0, x1 = Ts[j - 1], Ts[j]
    y0, y1 = ds[j - 1], ds[j]
    if y0 == y1:
        return float(x1)
    frac = (y0 - lv) / (y0 - y1)
    return float(x0 + frac * (x1 - x0))


def measure_sigma0_rate(
    snapshots: Sequence[FieldState],
    grid: Grid,
    comoving_shift: Callable[[float], float],
    probe_T: float,
    epsilon: float,
    edges_fn: Callable[[float], tuple[float, float]],
) -> float:
    """Slow soliton-phase rate sigma0_Z from the phase drift at a fixed probe.

    The probe sits at comoving offset probe_T (nonzero, inside the inner
    region); the unwrapped phase there is sigma0(Z) plus z-stationary terms,
    so its least-squares slope in z divided by eps estimates sigma0_Z (the
    slope itself when eps = 0).  Raises MeasurementError when a predicted
    shelf edge ``edges_fn(z) = (S_L, S_R)`` comes within twice the probe's
    offset of the core in any snapshot.
    """
    if probe_T == 0.0:
        raise ValueError("probe_T must be nonzero (the core phase is singular at the center)")
    if len(snapshots) < 3:
        raise MeasurementError("need at least 3 snapshots for a phase-rate fit")
    for s in snapshots:
        s_l, s_r = edges_fn(s.z)
        if not abs(probe_T) < 0.5 * min(abs(s_l), s_r):
            raise MeasurementError(f"probe T*={probe_T} overtaken by shelf edge at z={s.z:.2f}")
    zs = np.array([s.z for s in snapshots])
    ph = [np.interp(probe_T + comoving_shift(s.z), grid.t, np.unwrap(np.angle(s.samples)))
          for s in snapshots]
    return float(np.polyfit(zs, np.unwrap(np.array(ph)), 1)[0]) / (epsilon or 1.0)


def track_edges(snapshots: Sequence[FieldState], grid: Grid, comoving_shift: Callable[[float], float],
                plateau_plus: float, plateau_minus: float) -> tuple[float, float]:
    """(right, left) edge speeds fitted to fixed-level crossings of the magnitude deviation.

    ``plateau_plus/minus`` are the predicted plateau deviations eps*q1 per
    side; each snapshot's edge is the outward crossing of EDGE_LEVEL times
    that value, scanned from 40% of the nominal edge position, with the
    pinned boundary magnitude as the background.  The transition midpoint
    rides the plateau characteristic (slower than u_inf by ~eps|q1|) while
    the similarity widening pushes foot-ward features outward; the quarter
    level sits where the two known O(eps) biases nearly cancel.  Positions
    are relative to ``comoving_shift(z)``; snapshots without both crossings
    are skipped.
    """
    zs, right, left = [], [], []
    for s in snapshots:
        dev = np.abs(s.samples) - float(abs(s.samples[0]))
        T = grid.t - comoving_shift(s.z)
        try:
            r = _edge_crossing(T, dev, plateau_plus, start=0.4 * s.z, sign=+1)
            l = _edge_crossing(T, dev, plateau_minus, start=-0.4 * s.z, sign=-1)
        except MeasurementError:
            continue
        zs.append(s.z)
        right.append(r)
        left.append(l)
    if len(zs) < 3:
        raise MeasurementError("fewer than 3 snapshots yielded edge crossings")
    return float(np.polyfit(zs, right, 1)[0]), float(np.polyfit(zs, left, 1)[0])


def measure_core_minimum(snapshot: FieldState, grid: Grid) -> tuple[float, float]:
    """(lab position, |u| value) of the soliton dip, parabolic-refined."""
    mag = np.abs(snapshot.samples)
    j = int(np.argmin(mag[2:-2])) + 2
    y0, y1, y2 = mag[j - 1], mag[j], mag[j + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    pos = grid.t[j] + shift * grid.dt
    val = y1 - 0.25 * (y0 - y2) * shift
    return float(pos), float(val)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """One header line, then one line of FMT-formatted numbers per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT.format(v) for v in row) + "\n")


def write_snapshot_csv(state: FieldState, grid: Grid, directory, run_id: str) -> str:
    """Dump one snapshot: a z record then N rows of (t, Re u, Im u)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{run_id}_z{state.z:.6g}.csv")
    write_csv(path, ("z", FMT.format(state.z)), zip(grid.t, state.samples.real, state.samples.imag))
    return path
