"""Direct integration of the background-phase-removed perturbed NLS.

Method of lines from the exact soliton: 4th-order central Laplacian (one-sided
at the edges), classical RK4 in z at 0.9 of its stability limit on the spectrum
linearized about the background, snapshots on the exact grid k z_max / n_snap,
and Dirichlet boundary values pinned to the adiabatically evolving background;
SimConfig.check holds every limit of a run and refuses one before its first
step; SimConfig.fit_grid applies it to a given grid or to auto_grid's, the
narrowest the domain rule admits, and names the field a refusal blames.  The
field carries the soliton phase jump, so it is not periodic.  The grid is
cell-centered and symmetric about t = 0, so the discrete odd symmetry
of a black soliton is exact.  A run is measured in ``observe``; this module
keeps the conserved quantities and the CSV writers of its snapshots.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .asymptotics import ParameterTrajectory, background_rate
from .finitediff import first_derivative, second_derivative
from .perturbations import Perturbation
from .quadrature import rk4_step
from .soliton import ConservedQuantities, CoreParams, grey_profile

D2_SPECTRAL_RADIUS = 16.0 / 3.0  # dt^2 max |eigenvalue| of D2 without its pinned rows (all real, <= 0)
RK4_IMAGINARY_LIMIT = 2.0 * math.sqrt(2.0)  # RK4 is stable on the imaginary axis to |dz lambda| = 2 sqrt 2
STABILITY_MARGIN = 0.9  # fraction of that limit that dz times the top linearized frequency reaches (dz_per_dt2)
MAX_UINF_DT = 1.018350154434631  # coarsest u_inf dt: about a point per 1/u_inf, the core's least width
MAX_STEP_GROWTH = 1.0 + 1e-12  # step_growth allowed: 1 up to the rounding of the RK4 polynomial
MAX_POINT_STEPS = 1e10  # PDE steps x grid points
MAX_SNAPSHOT_BYTES = 2**30  # (kept snapshots + STEP_FIELDS) x grid points x 16 B + the background table
STEP_FIELDS = 9  # complex fields live in one RK4 step of run (tracemalloc at N = 4096: 7.1, two-photon 8.55)
TABLE_BYTES_PER_STEP = 256  # run's background table, 3 z per step, as built (tracemalloc: 200-224)
REACH_FRACTION = 0.65  # share of half_width - CORE_ALLOWANCE the shelf edges may reach (TestNarrowDomain)
CORE_ALLOWANCE = 3.5  # half_width past the reach the edge fronts need even on short runs
FMT = "{:.17g}"  # CSV number format: round-trips every float64


class SimulationError(RuntimeError):
    pass


class StabilityError(SimulationError):
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

    def resolve(self, grid: Grid, z_max: float, u_inf: float) -> tuple[float, int, int]:
        """(dz, n_snap * stride, stride): n_snap = z_max / snapshot_dz rounded, at most the fewest steps
        (at least one) with dz <= dz_per_dt2(u_inf dt) dt^2, and the fewest steps per interval.  Kept z:
        k z_max / n_snap.  u_inf is the largest background of the run: the soliton's, as no built-in
        forcing grows it."""
        fewest = max(1, math.ceil(z_max / (dz_per_dt2(u_inf * grid.dt) * grid.dt**2)))
        n_snap = max(1, round(min(z_max / self.snapshot_dz, fewest)))
        stride = -(-fewest // n_snap)
        return z_max / (n_snap * stride), n_snap * stride, stride

    def check(self, grid: Grid, params: CoreParams, z_max: float) -> tuple[float, int, int]:
        """resolve(grid, z_max, params.u_inf) of a run within the MAX_ limits and min_half_width(|t0| + dt/2 +
        u_inf z_max); else a ValueError naming the config field at fault ("perturbation" for the forcing's
        strength; "soliton.t0" for a reach that fits at t0 = 0, else "grid.half_width")."""
        u_inf, dt, n = params.u_inf, grid.dt, grid.n_points
        if u_inf * dt > MAX_UINF_DT:
            raise ValueError(f"grid.n_points: {n} points give u_inf*dt = {u_inf * dt:.4g} > {MAX_UINF_DT:.4g}, "
                             "coarser than a point per 1/u_inf, the core's least width")
        edge = 0.5 * dt + u_inf * z_max  # the reach from t0 = 0
        if grid.half_width < (least := min_half_width(reach := abs(params.t0) + edge)):
            field = "grid.half_width" if grid.half_width < min_half_width(edge) else "soliton.t0"
            raise ValueError(f"{field}: shelf edges from t0 = {params.t0} reach {reach:.4g} by run.z_max, "
                             f"which needs half_width >= {least:.4g}")
        # n_points is bounded first: with half_width >= CORE_ALLOWANCE, dt**2 >= 4.9e-19 cannot underflow.
        if n > MAX_POINT_STEPS:
            raise ValueError(f"grid.n_points: {n:.3g} points exceed the bound {MAX_POINT_STEPS:.0e} "
                             "point-steps in one step")
        try:
            resolved = self.resolve(grid, z_max, u_inf)
        except OverflowError:  # the step count is past the floats
            resolved = (0.0, math.inf, 1)
        _, n_steps, stride = resolved
        if n_steps * n > MAX_POINT_STEPS:
            raise ValueError(f"grid.n_points: {n_steps:.3g} steps x {n:.3g} points exceed "
                             f"the bound {MAX_POINT_STEPS:.0e} point-steps")
        mib = MAX_SNAPSHOT_BYTES / 2**20
        kept = (1 + n_steps // stride) * n * 16
        if kept > MAX_SNAPSHOT_BYTES:
            raise ValueError(f"run.snapshot_dz: {self.snapshot_dz} keeps {kept / 2**20:.0f} MiB of snapshots "
                             f"(bound {mib:.0f} MiB)")
        step = STEP_FIELDS * n * 16
        if kept + step > MAX_SNAPSHOT_BYTES:
            raise ValueError(f"grid.n_points: {n} points need {step / 2**20:.0f} MiB for one step "
                             f"on top of {kept / 2**20:.0f} MiB of snapshots (bound {mib:.0f} MiB)")
        table = TABLE_BYTES_PER_STEP * n_steps
        if kept + step + table > MAX_SNAPSHOT_BYTES:
            raise ValueError(f"run.z_max: {n_steps:.3g} PDE steps need {table / 2**20:.0f} MiB of background table "
                             f"on top of {(kept + step) / 2**20:.0f} MiB of fields (bound {mib:.0f} MiB)")
        if self.epsilon != 0.0:
            damping = self.epsilon * self.perturbation.point_eval(0j, 1.0).imag  # eps gamma of i gamma u_tt, else 0
            growth = step_growth(damping, u_inf * dt) if damping else 1.0
            if not growth <= MAX_STEP_GROWTH:
                raise ValueError(f"perturbation: the u_tt coefficient eps*Im F(0, 1) = {damping:.4g} at u_inf*dt = "
                                 f"{u_inf * dt:.4g} makes the PDE step unstable (growth {growth:.4g} per step)")
        return resolved

    def fit_grid(self, params: CoreParams, z_max: float, grid: Grid | None = None) -> Grid:
        """``grid``, else auto_grid(params, z_max), once check admits it; else check's ValueError, except that an
        automatic grid's refusal names soliton.t0 when the run fits from t0 = 0 (auto_grid holds |t0|, as check
        names the reach), else run.z_max for a reach past the floats."""
        if grid is not None:
            self.check(grid, params, z_max)
            return grid
        try:
            grid = auto_grid(params, z_max)
            self.check(grid, params, z_max)
            return grid
        except (ValueError, OverflowError) as exc:  # OverflowError: auto_grid for a reach past the floats
            refusal = exc
        detail = str(refusal) if isinstance(refusal, ValueError) else "the reach is past the floats"
        at_zero = replace(params, t0=0.0)
        try:
            self.check(auto_grid(at_zero, z_max), at_zero, z_max)
        except (ValueError, OverflowError):
            if isinstance(refusal, ValueError):
                raise refusal from None
            raise ValueError(f"run.z_max: no automatic grid holds u_inf*z_max ({detail})") from None
        raise ValueError(f"soliton.t0: no automatic grid holds the reach from t0 = {params.t0} ({detail})")


@dataclass(frozen=True)
class SimBackground:
    """Adiabatic background seen by the simulator: u_inf(z) and its rate, at a z or an array of them.

    Boundary phases are constant in the background-phase-removed frame for
    forcings with Re F[u_inf] = 0, which ``from_perturbation`` checks.
    """

    u_inf_fn: Callable
    rate_fn: Callable

    @classmethod
    def constant(cls, u_inf: float) -> "SimBackground":
        return cls(u_inf_fn=lambda z: np.full(np.shape(z), u_inf)[()], rate_fn=lambda z: np.zeros(np.shape(z))[()])

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

        def u_inf_fn(z):
            return np.interp(z, zs, u_inf)

        def rate_fn(z):
            # F is evaluated on an array even for one z: numpy squares a scalar by pow and an array by
            # a product, and these can differ in the last bit.
            return (epsilon * background_rate(pert, np.atleast_1d(u_inf_fn(z)))).reshape(np.shape(z))[()]

        return cls(u_inf_fn=u_inf_fn, rate_fn=rate_fn)


def min_half_width(reach: float) -> float:
    """The narrowest half_width for shelf edges reaching |t| = reach: a short run needs a gap past the reach
    in absolute terms, a long one in proportion, before the pinned edges leave |u| as it is on a wide domain."""
    return reach / REACH_FRACTION + CORE_ALLOWANCE


def auto_grid(params: CoreParams, z_max: float) -> Grid:
    """The narrowest whole half_width SimConfig.check admits at dt <= min(0.1, 1/u_inf), N a multiple of 512:
    min_half_width of the shelf edges' reach |t0| + dt/2 + u_inf z_max.  OverflowError for a reach past the floats."""
    dt = min(0.1, 1.0 / params.u_inf)
    half = math.ceil(min_half_width(abs(params.t0) + 0.5 * dt + params.u_inf * z_max))
    return Grid(float(half), max(512 * math.ceil(2.0 * half / dt / 512), 512))


def dz_per_dt2(uinf_dt: float) -> float:
    """The step rule dz / dt^2: STABILITY_MARGIN of RK4's imaginary-axis limit over the top frequency of the
    PDE linearized about u_inf, undamped.  Its modes, a = -eig(D2)/2 in [0, 8/3] dt^-2, oscillate at
    sqrt(a (a + 2 u_inf^2)), at most omega_max = (8/3) dt^-2 sqrt(1 + 3/4 (u_inf dt)^2)."""
    a = 0.5 * D2_SPECTRAL_RADIUS
    return STABILITY_MARGIN * RK4_IMAGINARY_LIMIT / math.sqrt(a * (a + 2.0 * uinf_dt**2))


def step_growth(damping: float, uinf_dt: float) -> float:
    """The largest |R(dz lambda)| of one RK4 step at dz = dz_per_dt2(u_inf dt) dt^2, R the RK4 polynomial.

    lambda runs over the PDE linearized about the background u_inf with a u_tt term of coefficient
    ``damping`` (eps Im F(0, 1)): -2 damping a +- i sqrt(a (a + 2 u_inf^2)), a = -eig(D2)/2 in
    [0, 8/3] dt^-2.  The step holds while this is at most 1, as it is at damping = 0 by construction;
    it is inf or nan where the damping overflows it.
    """
    s = np.linspace(0.0, 0.5 * D2_SPECTRAL_RADIUS, 65)  # a dt^2
    with np.errstate(over="ignore", invalid="ignore"):
        x = dz_per_dt2(uinf_dt) * (-2.0 * damping * s + 1j * np.sqrt(s * (s + 2.0 * uinf_dt**2)))
        return float(np.max(np.abs(1.0 + x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0))))))


def rate_buffers(n: int) -> tuple[np.ndarray, ...]:
    """The arrays nls_rate writes on an n-point grid: four complex, the last with a zero imaginary part."""
    return (*np.empty((3, n), complex), np.zeros(n, complex))


def nls_rate(u: np.ndarray, dt: float, u_inf: float, epsilon: float, pert: Perturbation | None,
             work: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, F[u]) on a grid of spacing dt, w the bracket of the perturbed NLS u_z = -i w:

        w = 1/2 u_tt - (|u|^2 - u_inf^2) u + eps F[u]

    F is evaluated (and added) only when eps != 0; it is None otherwise.  |u|^2 is (Re u)^2 + (Im u)^2
    from one product over u.view(float), u contiguous.  Given ``work`` (from ``rate_buffers``), w
    and its temporaries are written there, w into work[0], which the next call overwrites.  ``run``
    steps w with h = -i dz and overwrites its boundary rows with i times the background's rate.
    """
    w, u_tt, nonlinear, density = work or rate_buffers(u.size)
    second_derivative(u, dt, out=u_tt)
    np.multiply(0.5, u_tt, out=w)
    np.square(u.view(float), out=nonlinear.view(float))  # ((Re u)^2, (Im u)^2) until nonlinear is written
    np.add(nonlinear.real, nonlinear.imag, out=density.real)
    density -= u_inf**2  # stays real: the product below is the one numpy makes after casting a real density
    np.multiply(density, u, out=nonlinear)
    w -= nonlinear
    F = None
    if epsilon != 0.0:
        F = pert.grid_eval(u, u_tt)
        w += np.multiply(epsilon, F, out=nonlinear)
    return w, F


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

    The background is read once, at every z a step reads: RK4 nodes 0, 1 and 2 of step n
    are the rows n dz (also the boundary after step n - 1), n dz + dz/2 and n dz + dz.  Each
    stage writes the bracket w of nls_rate into one set of buffers, i times the background's
    rate on the boundary rows, and u_z = -i w is stepped as w with h = -i dz, whose products
    round as those of dz and -i w.

    Raises ValueError before the first step when config.check refuses the run, and
    StabilityError on norm blow-up.
    """
    dz, n_steps, stride = config.check(grid, params, z_max)
    z_step = np.arange(n_steps + 1) * dz
    zs = np.concatenate((z_step, z_step[:-1] + 0.5 * dz, z_step[:-1] + dz))
    u_inf, rate = background.u_inf_fn(zs), background.rate_fn(zs)
    half, full = n_steps + 1, 2 * n_steps + 1  # where the n dz + dz/2 and n dz + dz entries start
    dt = grid.dt
    eps = config.epsilon
    pert = config.perturbation

    u = grey_profile(params, grid.t - params.t0)
    bc_unit_left = u[0] / params.u_inf
    bc_unit_right = u[-1] / params.u_inf
    work = rate_buffers(grid.n_points)

    def rhs(f: np.ndarray, node: int) -> np.ndarray:
        i = n + (0, half, full)[node]  # the row of node 0, 1 or 2 of the current step n
        w, _ = nls_rate(f, dt, u_inf[i], eps, pert, work)
        w[0] = 1j * (rate[i] * bc_unit_left)
        w[-1] = 1j * (rate[i] * bc_unit_right)
        return w

    max0 = float(np.max(np.abs(u)))
    snapshots = [FieldState(z=0.0, samples=u.copy())]
    h = -1j * dz
    n_snap = n_steps // stride
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up meets the peak check below
        for k in range(1, n_snap + 1):
            for n in range((k - 1) * stride, k * stride):
                u = rk4_step(rhs, u, h, rhs(u, 0))
                u[0] = u_inf[n + 1] * bc_unit_left
                u[-1] = u_inf[n + 1] * bc_unit_right
            peak = float(np.max(np.abs(u)))
            if not np.isfinite(peak) or peak > 10.0 * max0:
                raise StabilityError(f"norm grew to {peak:.3e} at z={(n + 1) * dz:.3f}")
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

    with u_z = -i w from the bracket w the stepper integrates (nls_rate).
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
            w, F = nls_rate(u, grid.dt, uinf, eps, pert)
            f_bg = pert.on_background(uinf) * uinf
            rhs_H = 2.0 * uinf * background.rate_fn(s.z) * series["E"][k] + 2.0 * eps * float(
                np.trapezoid(np.real(F * np.conj(-1j * w)), dx=grid.dt)
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


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """One header line, then one line of FMT-formatted numbers per row, each row formatted by one call."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([FMT] * len(row)).format(*row) + "\n")


def write_snapshot_csv(state: FieldState, grid: Grid, directory, run_id: str) -> str:
    """Dump one snapshot: a z record then N rows of (t, Re u, Im u)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{run_id}_z{state.z:.6g}.csv")
    write_csv(path, ("z", FMT.format(state.z)), zip(grid.t, state.samples.real, state.samples.imag))
    return path


# bench/tracer.py's simulator.measure span looks the kernels up here; ROADMAP item 6 repoints it and deletes this.
from .observe import measure_core_minimum, measure_shelf, measure_sigma0_rate, track_edges  # noqa: E402,F401
