"""Measurements of a simulated run: plateau levels, edge crossings and phase slopes.

Where and when each is read (windows, levels, fit ranges) is one table, ``PROTOCOL``.  ``OBSERVABLES``
declares each graded row and the adapter that picks what a kernel measures.  Kernels and adapters look
``PROTOCOL`` and each other up on this module at call time, so a wrapper installed here (a profiler, a
test double) sees every call.  ``composite_magnitude`` is the predicted |u| that emit plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from . import boundary_layer, simulator
from .soliton import CoreParams, grey_profile

if TYPE_CHECKING:
    from .harness import Artifacts


class MeasurementError(RuntimeError):
    pass


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    predicted: float
    measured: float
    tolerance: float
    relative: bool = True

    @property
    def error(self) -> float:
        if self.relative:
            scale = abs(self.predicted) if self.predicted != 0 else 1.0
            return float(abs(self.measured - self.predicted) / scale)
        return float(abs(self.measured - self.predicted))

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tolerance)

    def as_dict(self) -> dict[str, Any]:
        def finite(v):
            return v if math.isfinite(v) else None

        return {
            "name": self.name,
            "predicted": float(self.predicted),
            "measured": finite(float(self.measured)),
            "error": finite(self.error),
            "tolerance": float(self.tolerance),
            "relative": bool(self.relative),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Protocol:
    """The measurement protocol: one field per rule of where and when a row is measured (lengths in
    comoving units, z in lab units).  It is not a config key; emit's plot windows are not part of it."""

    window_end: float = 0.7  # a plateau window ends at this share of its predicted edge S_R or S_L, short of the layer
    tail_factor: float = 40.0  # shelf_margin: 2/40 = 5%, the bare-core tail's bias on a plateau
    headroom: float = 1.25  # measurement_distance: lets the opening window outrun the plateau's formation transient
    window_room: float = 3.0  # measurement_distance: the span the plateau window must have
    min_distance: float = 20.0  # the shortest measurement distance
    distance_step: float = 5.0  # measurement distances are rounded up to a multiple of this
    balance_margin: float = 10.0  # black_balance's windows start this many core widths 1/B out, on the final snapshot
    late_z: float = 10.0  # sigma0 and edge speeds fit the snapshots from this z on, once the shelf has formed
    sigma0_probe: float = -2.0  # the sigma0 probe's offset in core widths 1/B: the fast side, where edge bias is least
    probe_guard: float = 0.5  # sigma0 fails once a predicted edge is within offset/probe_guard of the core
    velocity_span: float = 10.0  # a_constancy: the dip velocities over each half of this span before z_m must agree
    velocity_points: int = 4  # ... each fitted to at least this many snapshots
    a_scale_switch: float = 0.05  # a_constancy scales by A, or by u_inf where |A| is under this share of u_inf
    layer_widths: float = 5.0  # the layer row compares |u| over +- this many similarity widths around S_R ...
    layer_points: int = 257  # ... at this many points
    plateau_points: int = 20  # samples a plateau window must hold
    flatness: float = 0.25  # a plateau is flat when its deviation's std is at most this share of |q1|
    edge_level: float = 0.25  # an edge crosses this share of the plateau: there the two known O(eps) biases cancel
    edge_scan_start: float = 0.4  # crossings are scanned outward from this share of z


PROTOCOL = Protocol()


def shelf_margin(params: CoreParams, epsilon: float, q1_side: float) -> float:
    """Comoving offset beyond which the bare-core tail, 2 B^2/u_inf e^{-2BT}, biases (|u|-u_inf)/eps
    by less than a share 2/PROTOCOL.tail_factor of the plateau value."""
    B, u = params.B, params.u_inf
    return math.log(PROTOCOL.tail_factor * B * B / (u * abs(epsilon * q1_side))) / (2.0 * B)


def measurement_distance(params: CoreParams, epsilon: float, q1_side: float, side: int) -> float:
    """Distance at which the plateau window on ``side`` has PROTOCOL.window_room units of room, times the
    headroom, rounded up to a distance_step and at least min_distance."""
    P = PROTOCOL
    speed = params.u_inf - side * params.A
    margin = shelf_margin(params, epsilon, q1_side)
    z = P.headroom * (margin + P.window_room) / (P.window_end * speed)
    return max(P.min_distance, P.distance_step * math.ceil(z / P.distance_step))


def measure_shelf(snapshot: simulator.FieldState, grid: simulator.Grid, comoving_shift: Callable[[float], float],
                  window: tuple[float, float], epsilon: float, u_inf: float) -> tuple[float, float, bool]:
    """(q1, phi1t, flat) of the plateau over the comoving window [lo, hi].

    ``comoving_shift(z)`` is the lab position of the comoving origin.  q1 is
    (|u| - u_inf)/eps averaged over the window, phi1t the least-squares
    phase slope over it divided by eps, and ``flat`` is False when the
    deviation's std exceeds PROTOCOL.flatness times |q1|.  Raises
    MeasurementError when fewer than PROTOCOL.plateau_points samples fall in
    the window.
    """
    if epsilon == 0.0:
        raise ValueError("shelf measurement requires epsilon != 0")
    P, (lo, hi) = PROTOCOL, window
    T = grid.t - comoving_shift(snapshot.z)
    mask = (T >= lo) & (T <= hi)
    if (n := int(mask.sum())) < P.plateau_points:
        raise MeasurementError(f"plateau window [{lo:.2f}, {hi:.2f}] holds {n} points (< {P.plateau_points})")
    dev = (np.abs(snapshot.samples[mask]) - u_inf) / epsilon
    q1 = float(np.mean(dev))
    phase = np.unwrap(np.angle(snapshot.samples))[mask]
    return q1, float(np.polyfit(T[mask], phase, 1)[0]) / epsilon, bool(np.std(dev) <= P.flatness * abs(q1))


def _edge_crossing(T: np.ndarray, dev: np.ndarray, plateau: float, start: float, sign: int) -> float:
    """First crossing of PROTOCOL.edge_level times the plateau level outward from ``start``.

    ``sign`` +1 scans toward +T, -1 toward -T along the increasing ``T``.
    The deviation is folded so the plateau is positive; the edge is where it
    first drops through the level, linearly interpolated between samples.
    """
    if plateau == 0.0:
        raise MeasurementError("zero plateau value; no edge level to cross")
    fold = -1.0 if plateau < 0 else 1.0
    Ts = T[::sign]
    ds = fold * dev[::sign]
    lv = PROTOCOL.edge_level * abs(plateau)
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


def measure_sigma0_rate(snapshots: Sequence[simulator.FieldState], grid: simulator.Grid,
                        comoving_shift: Callable[[float], float], probe_T: float, epsilon: float,
                        edges_fn: Callable[[float], tuple[float, float]]) -> float:
    """Slow soliton-phase rate sigma0_Z from the phase drift at a fixed probe.

    The probe sits at comoving offset probe_T (nonzero, inside the inner
    region); the unwrapped phase there is sigma0(Z) plus z-stationary terms,
    so its least-squares slope in z divided by eps estimates sigma0_Z (the
    slope itself when eps = 0).  Raises MeasurementError when a predicted
    shelf edge ``edges_fn(z) = (S_L, S_R)`` comes within
    |probe_T|/PROTOCOL.probe_guard of the core in any snapshot.
    """
    if probe_T == 0.0:
        raise ValueError("probe_T must be nonzero (the core phase is singular at the center)")
    if len(snapshots) < 3:
        raise MeasurementError("need at least 3 snapshots for a phase-rate fit")
    for s in snapshots:
        s_l, s_r = edges_fn(s.z)
        if not abs(probe_T) < PROTOCOL.probe_guard * min(abs(s_l), s_r):
            raise MeasurementError(f"probe T*={probe_T} overtaken by shelf edge at z={s.z:.2f}")
    zs = np.array([s.z for s in snapshots])
    ph = [np.interp(probe_T + comoving_shift(s.z), grid.t, np.unwrap(np.angle(s.samples)))
          for s in snapshots]
    return float(np.polyfit(zs, np.unwrap(np.array(ph)), 1)[0]) / (epsilon or 1.0)


def track_edges(snapshots: Sequence[simulator.FieldState], grid: simulator.Grid,
                comoving_shift: Callable[[float], float], plateau_plus: float,
                plateau_minus: float) -> tuple[float, float]:
    """(right, left) edge speeds fitted to fixed-level crossings of the magnitude deviation.

    ``plateau_plus/minus`` are the predicted plateau deviations eps*q1 per side; each snapshot's edge is
    the outward crossing of PROTOCOL.edge_level times that value, scanned from |T| = PROTOCOL.edge_scan_start
    z, with the pinned boundary magnitude as the background.  The transition midpoint rides the plateau
    characteristic (slower than u_inf by ~eps|q1|) while the similarity widening pushes foot-ward features
    outward; the level is chosen where the two known O(eps) biases nearly cancel.  Positions are relative
    to ``comoving_shift(z)``; snapshots without both crossings are skipped.
    """
    zs, right, left = [], [], []
    for s in snapshots:
        dev = np.abs(s.samples) - float(abs(s.samples[0]))
        T = grid.t - comoving_shift(s.z)
        try:
            r = _edge_crossing(T, dev, plateau_plus, PROTOCOL.edge_scan_start * s.z, +1)
            l = _edge_crossing(T, dev, plateau_minus, -PROTOCOL.edge_scan_start * s.z, -1)
        except MeasurementError:
            continue
        zs.append(s.z)
        right.append(r)
        left.append(l)
    if len(zs) < 3:
        raise MeasurementError("fewer than 3 snapshots yielded edge crossings")
    return float(np.polyfit(zs, right, 1)[0]), float(np.polyfit(zs, left, 1)[0])


def measure_core_minimum(snapshot: simulator.FieldState, grid: simulator.Grid) -> tuple[float, float]:
    """(lab position, |u| value) of the soliton dip, parabolic-refined."""
    mag = np.abs(snapshot.samples)
    j = int(np.argmin(mag[2:-2])) + 2
    y0, y1, y2 = mag[j - 1], mag[j], mag[j + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    pos = grid.t[j] + shift * grid.dt
    val = y1 - 0.25 * (y0 - y2) * shift
    return float(pos), float(val)


def composite_magnitude(art: Artifacts, T: np.ndarray) -> np.ndarray:
    """The predicted |u| at comoving T on the final snapshot: the leading magnitude
    plus the shelf plateaus smoothed by the edge layers, all from the final parameters."""
    traj, z = art.traj, art.final.z
    params, sh = traj.params[-1], traj.shelf[-1]
    q0 = np.abs(params.A + 1j * params.B * np.tanh(params.B * T))
    if art.exp.epsilon == 0.0:
        return q0
    s_l, s_r = traj.edges(z)
    right = boundary_layer.LayerProfile.at_edge("right", params.u_inf, sh.q1_plus)
    left = boundary_layer.LayerProfile.at_edge("left", params.u_inf, sh.q1_minus)
    w = np.where(T >= 0, boundary_layer.shelf_magnitude_profile(right, z, T - s_r),
                 boundary_layer.shelf_magnitude_profile(left, z, T - s_l))
    return q0 + art.exp.epsilon * w


def layer_window(art: Artifacts, widths: float, points: int):
    """(x, simulated |u|, predicted |u|) across the right-edge layer of the
    final snapshot, for |x| up to ``widths`` similarity widths of the final background."""
    traj, snap = art.traj, art.final
    _, s_r = traj.edges(snap.z)
    a = boundary_layer.LayerProfile.at_edge("right", traj.params[-1].u_inf, 0.0).a
    width = widths * snap.z ** (1.0 / 3.0) / abs(a)
    x = np.linspace(-width, width, points)
    T = art.exp.grid.t - traj.comoving_shift(snap.z)
    return x, np.interp(x + s_r, T, np.abs(snap.samples)), composite_magnitude(art, x + s_r)


@dataclass(frozen=True)
class Observable:
    """One graded observable: ``rows`` declares its rows with measured = NaN
    (also the failure fallback), ``measure`` returns one value per row.  It
    applies to unperturbed runs only if not ``perturbed_only``;
    ``default_for`` names the core kinds ("black", "grey") graded by default."""

    name: str
    rows: Callable[[Artifacts], list[ComparisonRow]]
    measure: Callable[[Artifacts], Sequence[float]]
    perturbed_only: bool = True
    default_for: tuple[str, ...] = ("black",)


def _row(name: str, predicted: float, tolerance: float, relative: bool = True) -> ComparisonRow:
    return ComparisonRow(name, predicted, float("nan"), tolerance, relative)


def _snapshot_at(snapshots, z: float):
    return snapshots[int(np.argmin([abs(s.z - z) for s in snapshots]))]


def _measure_fidelity(art: Artifacts) -> list[float]:
    exp, snapshots, final = art.exp, art.snapshots, art.final
    exact = grey_profile(exp.params, exp.grid.t - art.traj.comoving_shift(final.z))
    dev = float(np.max(np.abs(final.samples - exact)))
    q = [simulator.conserved_quantities(s, exp.grid, art.background.u_inf_fn(s.z)) for s in snapshots]
    drifts = []
    for name in "HEI":
        series = np.array([getattr(c, name) for c in q])
        drifts.append(float(np.max(np.abs(series - series[0]))) / max(1.0, abs(series[0])))
    dR = np.gradient(np.array([c.R for c in q]), np.array([s.z for s in snapshots]))
    return [dev, *drifts, float(np.max(np.abs(dR + np.array([c.I for c in q]))))]


def _measure_shelf(art: Artifacts, snap, side: int, margin: float) -> tuple[float, float, bool]:
    """(q1, phi1t, flat) of ``snap`` over the plateau window on ``side``: [margin, window_end S_R]
    right (+1) or [window_end S_L, -margin] left (-1) of the core."""
    P, (s_l, s_r) = PROTOCOL, art.traj.edges(snap.z)
    window = (margin, P.window_end * s_r) if side > 0 else (P.window_end * s_l, -margin)
    return measure_shelf(snap, art.exp.grid, art.traj.comoving_shift, window, art.exp.epsilon,
                         art.background.u_inf_fn(snap.z))


def _shelf_side(tag: str, side: int) -> Observable:
    """The plateau on one side, at its own measurement distance and margin."""
    key = f"q1_{tag}"

    def measure(art):
        params, eps, q1 = art.exp.params, art.exp.epsilon, getattr(art.shelf0, key)
        z_m = min(measurement_distance(params, eps, q1, side), art.exp.z_max)
        q1_m, _, _ = _measure_shelf(art, _snapshot_at(art.snapshots, z_m), side, shelf_margin(params, eps, q1))
        return [eps * q1_m]

    return Observable("shelf", lambda a: [_row(f"eps_{key}", a.exp.epsilon * getattr(a.shelf0, key), 0.10)],
                      measure, default_for=("black", "grey"))


def _measure_black_balance(art: Artifacts) -> list[float]:
    # Both sides of the final snapshot; the left-side magnitude correction flips sign.
    margin = PROTOCOL.balance_margin / art.exp.params.B
    (q1p, phi1tp, _), (q1m, phi1tm, _) = (_measure_shelf(art, art.final, side, margin) for side in (+1, -1))
    return [art.exp.epsilon * (q1p + q1m), phi1tp + phi1tm]


def _late_snapshots(art: Artifacts) -> list[simulator.FieldState]:
    """Snapshots from PROTOCOL.late_z on: what sigma0 and edge speeds fit."""
    return [s for s in art.snapshots if s.z >= PROTOCOL.late_z]


def _measure_sigma0(art: Artifacts) -> list[float]:
    exp = art.exp
    return [measure_sigma0_rate(_late_snapshots(art), exp.grid, art.traj.comoving_shift,
                                PROTOCOL.sigma0_probe / exp.params.B, exp.epsilon, art.traj.edges)]


def _measure_edges(art: Artifacts) -> list[float]:
    eps, sh0 = art.exp.epsilon, art.shelf0
    return list(track_edges(_late_snapshots(art), art.exp.grid, art.traj.comoving_shift,
                            eps * sh0.q1_plus, eps * sh0.q1_minus))


def _measure_t0(art: Artifacts) -> list[float]:
    p0, _ = measure_core_minimum(art.snapshots[0], art.exp.grid)
    p1, _ = measure_core_minimum(art.final, art.exp.grid)
    shift = art.traj.comoving_shift
    return [abs((p1 - shift(art.final.z)) - (p0 - shift(0.0)))]


def _measure_a_constancy(art: Artifacts) -> list[float]:
    """Dip velocities fitted over the two halves of the velocity span before z_m must agree."""
    exp, params, P = art.exp, art.exp.params, PROTOCOL
    z_m = min(measurement_distance(params, exp.epsilon, art.shelf0.q1_plus, +1), exp.z_max)
    zs = np.array([s.z for s in art.snapshots])
    pos = np.array([measure_core_minimum(s, exp.grid)[0] for s in art.snapshots])
    vels, half = [], 0.5 * P.velocity_span
    for lo, hi in [(z_m - P.velocity_span, z_m - half), (z_m - half, z_m)]:
        m = (zs >= lo) & (zs <= hi)
        if m.sum() < P.velocity_points:
            raise MeasurementError("too few snapshots for a velocity fit")
        vels.append(float(np.polyfit(zs[m], pos[m], 1)[0]))
    scale = params.A if abs(params.A) > P.a_scale_switch * params.u_inf else params.u_inf
    return [abs(vels[1] - vels[0]) / scale]


def _measure_layer(art: Artifacts) -> list[float]:
    _, sim, pred = layer_window(art, PROTOCOL.layer_widths, PROTOCOL.layer_points)
    return [float(np.max(np.abs(sim - pred)))]


OBSERVABLES: tuple[Observable, ...] = (
    Observable("fidelity", lambda a: [
        _row("fidelity_max_pointwise_dev", 0.0, 1e-6, False),
        *(_row(f"conservation_drift_{n}", 0.0, 1e-6, False) for n in "HEI"),
        _row("dRdz_plus_I_residual", 0.0, 1e-5, False),
    ], _measure_fidelity, perturbed_only=False, default_for=()),
    _shelf_side("plus", +1),
    _shelf_side("minus", -1),
    Observable("black_balance", lambda a: [
        _row("eps_q1_diff_signed", a.exp.epsilon * 2.0 * a.shelf0.q1_plus, 0.10),
        _row("phi1t_sum", 0.0, 0.005, False),
    ], _measure_black_balance),
    Observable("sigma0", lambda a: [_row("sigma0_rate", a.shelf0.sigma0_rate, 0.05)], _measure_sigma0),
    Observable("edges", lambda a: [
        _row("edge_speed_right", a.exp.params.u_inf - a.exp.params.A, 0.05),
        _row("edge_speed_left", -(a.exp.params.u_inf + a.exp.params.A), 0.05),
    ], _measure_edges),
    Observable("t0", lambda a: [_row("t0_drift", 0.0, 0.1, False)], _measure_t0, perturbed_only=False),
    Observable("a_constancy", lambda a: [_row("A_velocity_constancy", 0.0, 0.02, False)],
               _measure_a_constancy, default_for=("grey",)),
    Observable("layer", lambda a: [_row("layer_max_deviation", 0.0, 0.2 * a.exp.epsilon, False)],
               _measure_layer),
)
