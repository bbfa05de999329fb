"""Closed forms and reference integrators of the theory that the tests check the engine against.

No run of the package uses them: the explicit first-order solution of a
black soliton under dispersive damping, the linearized operator about the
soliton with its four homogeneous solutions, the slow-parameter cascade
stepped by classical RK4, the PDE run as one allocating loop, and the
prediction table written one row object at a time.
Derivatives use the package's 4th-order stencils.
"""

import math
from dataclasses import replace

import numpy as np

from darkshelf.asymptotics import SAMPLES, edge_phase_flux, grey_parameter_rhs
from darkshelf.finitediff import first_derivative, second_derivative
from darkshelf.harness import _CORE_COLUMNS, _SHELF_COLUMNS
from darkshelf.quadrature import rk4_step
from darkshelf.simulator import FMT
from darkshelf.soliton import CoreParams, grey_profile

# -- Black soliton under F = i gamma u_tt, first order ---------------------
# sigma0_Z = -(4/3) gamma u_inf^2 and t0_Z = 0; the free constants of the
# reduction-of-order solution are fixed by boundedness and by q1(t0) = 0.
# q1 is in the signed convention of the black representation, and phi1 is
# fixed by phi1(t0) = 0.


def black_q1(t, gamma: float, u_inf: float, t0: float = 0.0):
    """q1(t), with asymptotes -+(2/3) gamma u_inf (right/left)."""
    x = u_inf * (np.asarray(t, dtype=float) - t0)
    # sinh(2x) sech^2(x) == 2 tanh(x): overflow-free form.
    return -(2.0 / 3.0) * gamma * u_inf * (np.tanh(x) + x / np.cosh(x) ** 2)


def black_phi1(t, gamma: float, u_inf: float, t0: float = 0.0):
    """phi1(t) = (4/3) gamma log cosh(u_inf (t - t0))."""
    x = u_inf * (np.asarray(t, dtype=float) - t0)
    # log(cosh) via |x| + log1p(exp(-2|x|)) - log 2 to avoid overflow.
    logcosh = np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - math.log(2.0)
    return (4.0 / 3.0) * gamma * logcosh


def black_phi1_t(t, gamma: float, u_inf: float, t0: float = 0.0):
    """phi1_t(t), with asymptotes +-(4/3) gamma u_inf (right/left)."""
    x = u_inf * (np.asarray(t, dtype=float) - t0)
    return (4.0 / 3.0) * gamma * u_inf * np.tanh(x)


# -- Linearized operator about the soliton ---------------------------------

LINEARIZED_MARGIN = 4  # samples dropped at each end: one-sided stencils meet growing solutions there


def linearized_apply(
    params: CoreParams,
    U: np.ndarray,
    W: np.ndarray,
    T: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the 2x2 linearization L to the real field pair (U, W) = (Re, Im).

    Derivatives use the package's 4th-order stencils on the uniform grid T.
    The diagonal potentials read the printed matrix's tanh as tanh^2, the
    form obtained by linearizing the NLS about (A + iB tanh), because the
    printed form does not annihilate the homogeneous solutions.
    """
    T = np.asarray(T, dtype=float)
    dT = T[1] - T[0]
    A, B, u2 = params.A, params.B, params.u_inf**2
    tau = np.tanh(B * T)
    pot1 = 3.0 * A**2 + B**2 * tau**2 - u2
    pot2 = A**2 + 3.0 * B**2 * tau**2 - u2
    cross = 2.0 * A * B * tau
    r1 = -0.5 * second_derivative(U, dT) + pot1 * U + A * first_derivative(W, dT) + cross * W
    r2 = -0.5 * second_derivative(W, dT) + pot2 * W - A * first_derivative(U, dT) + cross * U
    return r1, r2


def homogeneous_solutions(params: CoreParams, T: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The four homogeneous solution pairs of the linearized system.

    The first two are bounded; the third grows linearly and the fourth like
    cosh^2, so residual checks should stay within |T| <= 10/B.  Requires
    |A^2 - B^2| >= 1e-9 for the fourth solution.
    """
    A, B = params.A, params.B
    if abs(A**2 - B**2) < 1e-9:
        raise ValueError("A^2 - B^2 degenerate: fourth homogeneous solution undefined")
    T = np.asarray(T, dtype=float)
    s = B * T
    tau = np.tanh(s)
    sech2 = 1.0 / np.cosh(s) ** 2
    z = np.zeros_like(T)
    u11 = (z, sech2)
    u12 = (B * tau, np.full_like(T, -A))
    u13 = (
        B * (s * tau - 1.0),
        A * (-s + 1.5 * s * sech2 + 1.5 * tau),
    )
    u14 = (
        -4.0 * A * B / (A**2 - B**2) * np.cosh(s) ** 2,
        3.0 * s * sech2 + 4.0 * tau + tau * np.cosh(2.0 * s),
    )
    return [u11, u12, u13, u14]


def linearized_residual(params: CoreParams, pair: tuple[np.ndarray, np.ndarray], T: np.ndarray) -> float:
    """Sup-norm residual of L*pair, normalized by the pair's window sup, inside LINEARIZED_MARGIN."""
    r1, r2 = linearized_apply(params, pair[0], pair[1], T)
    sl = slice(LINEARIZED_MARGIN, -LINEARIZED_MARGIN)
    scale = max(np.max(np.abs(pair[0][sl])), np.max(np.abs(pair[1][sl])), 1.0)
    return float(max(np.max(np.abs(r1[sl])), np.max(np.abs(r2[sl]))) / scale)


# -- The slow-parameter cascade by classical RK4 ----------------------------


def rk4_cascade(pert, params0: CoreParams, epsilon: float, z_span: float, steps: int):
    """(z, params, shelf) at SAMPLES evenly spaced samples of the cascade, stepped by RK4 in ``steps``
    steps (a multiple of SAMPLES - 1) over Z in [0, eps*z_span].  The state is (u_inf, A, sigma0,
    delta_phi1), with delta_phi1 integrated as the edge phase flux per unit z; B follows from
    A^2 + B^2 = u_inf^2.  A sample records the state a step starts from and its rates."""
    h = epsilon * z_span / steps
    stride = steps // (SAMPLES - 1)

    def rate(state):
        u, A, s0, _ = state
        p = CoreParams(u_inf=u, A=A, B=math.sqrt(u**2 - A**2), t0=params0.t0, sigma0=s0)
        sh = grey_parameter_rhs(pert, p)
        return np.array([sh.u_inf_rate, sh.A_rate, sh.sigma0_rate, edge_phase_flux(p, sh) / epsilon]), p, sh

    state = np.array([params0.u_inf, params0.A, params0.sigma0, 0.0])
    z, params, shelf = [], [], []
    for n in range(steps + 1):
        k1, p, sh = rate(state)
        if n % stride == 0:
            z.append(n * h / epsilon)
            params.append(p)
            shelf.append(replace(sh, delta_phi1=float(state[3])))
        if n < steps:
            state = rk4_step(lambda y, _node: rate(y)[0], state, h, k1)
    return np.array(z), params, shelf


def dop853_cascade(pert, params0: CoreParams, epsilon: float, z_span: float):
    """(params, shelf) at SAMPLES evenly spaced Z in [0, eps*z_span], from the state of rk4_cascade
    integrated by scipy's DOP853 at rtol 1e-13, atol 1e-15 and read off its dense output."""
    from scipy.integrate import solve_ivp  # a test dependency; the package never imports scipy

    def state_params(y):
        u, A, s0, _ = y
        return CoreParams(u_inf=u, A=A, B=math.sqrt(u**2 - A**2), t0=params0.t0, sigma0=s0)

    def rate(_Z, y):
        p = state_params(y)
        sh = grey_parameter_rhs(pert, p)
        return [sh.u_inf_rate, sh.A_rate, sh.sigma0_rate, edge_phase_flux(p, sh)]

    Z_end = epsilon * z_span
    y0 = [params0.u_inf, params0.A, params0.sigma0, 0.0]
    sol = solve_ivp(rate, (0.0, Z_end), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=np.linspace(0.0, Z_end, SAMPLES))
    assert sol.success, sol.message
    params = [state_params(y) for y in sol.y.T]
    shelf = [replace(grey_parameter_rhs(pert, p), delta_phi1=float(y[3]) / epsilon) for p, y in zip(params, sol.y.T)]
    return params, shelf


# -- The PDE run as one allocating loop -------------------------------------


def reference_run(config, grid, params: CoreParams, background, z_max: float) -> list[np.ndarray]:
    """The samples of simulator.run's snapshots, from the loop it replaced: each stage allocates
    its rate -i (u_tt/2 - (|u|^2 - u_inf^2) u + eps F[u]) and calls background.u_inf_fn and
    rate_fn at its own z, and the RK4 sum is written out.  dz, steps and stride are resolve's."""
    dz, n_steps, stride = config.resolve(grid, z_max, params.u_inf)
    eps, pert, dt = config.epsilon, config.perturbation, grid.dt
    u = grey_profile(params, grid.t - params.t0)
    bc_left, bc_right = u[0] / params.u_inf, u[-1] / params.u_inf

    def rate(f, z):
        u_inf = background.u_inf_fn(z)
        u_tt = second_derivative(f, dt)
        total = 0.5 * u_tt - (f.real**2 + f.imag**2 - u_inf**2) * f
        if eps != 0.0:
            total = total + eps * pert.grid_eval(f, u_tt)
        w = -1j * total
        w[0] = background.rate_fn(z) * bc_left
        w[-1] = background.rate_fn(z) * bc_right
        return w

    snapshots = [u.copy()]
    z = 0.0
    for n in range(n_steps):
        k1 = rate(u, z)
        k2 = rate(u + 0.5 * dz * k1, z + 0.5 * dz)
        k3 = rate(u + 0.5 * dz * k2, z + 0.5 * dz)
        k4 = rate(u + dz * k3, z + dz)
        u = u + dz / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z = (n + 1) * dz
        u[0] = background.u_inf_fn(z) * bc_left
        u[-1] = background.u_inf_fn(z) * bc_right
        if (n + 1) % stride == 0:
            snapshots.append(u.copy())
    return snapshots


# -- The prediction table, one row object at a time --------------------------


def write_trajectory_rows(traj, path: str) -> None:
    """The prediction CSV built one sample at a time, the reference for harness._write_trajectory: per
    sample one CoreParams (delta_phi0 from its property), one ShelfParams and one edges(z) call, and
    each value formatted on its own."""
    rows = [(z, Z, *(getattr(p, c) for c in _CORE_COLUMNS), *(getattr(sh, c) for c in _SHELF_COLUMNS),
             *traj.edges(z)) for z, Z, p, sh in zip(traj.z, traj.Z, traj.params, traj.shelf)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["z", "Z", *_CORE_COLUMNS, *_SHELF_COLUMNS, "S_L", "S_R"]) + "\n")
        for row in rows:
            fh.write(",".join(FMT.format(v) for v in row) + "\n")
