"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Each workload turns the seed into program inputs once, then ``iterate``
does the timed work through darkshelf's public API and ``check`` grades
what it produced, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from darkshelf import asymptotics, boundary_layer, cli, harness


@dataclass(frozen=True)
class Check:
    """One verified output.  ``err_over_tol`` is set for graded numbers."""

    name: str
    ok: bool
    err_over_tol: float | None = None


@dataclass(frozen=True)
class Outcome:
    digest: str  # sha256 over every byte the iteration produced
    checks: list[Check]


def _sha256(paths) -> "hashlib._Hash":
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h


def _write_config(cfg: dict, work_dir: str) -> str:
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


class CompareWorkload:
    """``darkshelf --config <preset> compare``, run in-process through ``cli.main``.

    The seed draws the global phase sigma0 in [0, 2 pi) and a t0 offset
    within half a grid cell.  Neither changes the grid, the step count or
    the snapshot count, so the work per iteration is seed-independent.
    """

    def __init__(self, preset: str, rows: set[str], seed: int, work_dir: str,
                 zero_counts=(), nonzero_counts=()):
        cfg = harness.load_config(preset)
        rng = random.Random(seed)
        dt = 2.0 * cfg["grid"]["half_width"] / cfg["grid"]["n_points"]
        cfg["soliton"]["sigma0"] = rng.uniform(0.0, 2.0 * math.pi)
        cfg["soliton"]["t0"] = (rng.random() - 0.5) * dt
        self.rows = rows
        self.zero_counts = zero_counts
        self.nonzero_counts = nonzero_counts
        self.inputs = {"preset": preset, "sigma0": cfg["soliton"]["sigma0"],
                       "t0": cfg["soliton"]["t0"]}
        self.config_path = _write_config(cfg, work_dir)

    def iterate(self, out_dir: str):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", self.config_path, "--out-dir", out_dir, "compare"])
        return code, os.path.join(out_dir, "compare_report.json")

    def check(self, raw) -> Outcome:
        code, report_path = raw
        checks = [Check("exit_code_0", code == cli.EXIT_OK)]
        if not os.path.exists(report_path):
            return Outcome("", checks + [Check("report_written", False)])
        with open(report_path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        checks.append(Check("row_set", {r["name"] for r in rows} == self.rows))
        for r in rows:
            ratio = math.inf if r["error"] is None else r["error"] / r["tolerance"]
            checks.append(Check(r["name"], bool(r["pass"]), ratio))
        return Outcome(_sha256([report_path]).hexdigest(), checks)


# Closed-form background magnitude u_inf(Z) of each built-in forcing.
_BACKGROUND = {
    "dispersive_damping": lambda s, Z: 1.0,
    "linear_damping": lambda s, Z: math.exp(-s["Gamma"] * Z),
    "two_photon": lambda s, Z: 1.0 / math.sqrt(1.0 + 2.0 * s["gamma3"] * Z),
}
_AIRY_PRIME_0 = -0.25881940379280679840518356  # Ai'(0)


class CascadeWorkload:
    """Theory only: the slow-parameter cascade and the Airy edge layers.

    For each built-in forcing and each of three seeded core phase changes
    delta_phi0 in [2 pi/5, pi], it runs ``harness.predict``, writes the
    prediction CSV, and evaluates the right and left magnitude and phase
    layer profiles at z_max on a fixed x grid.  The seed moves the shelf
    amplitudes, not the step counts or the grid, so the work is
    seed-independent.
    """

    PERTURBATIONS = (
        {"label": "dispersive_damping", "gamma": 1.0},
        {"label": "linear_damping", "Gamma": 0.5},
        {"label": "two_photon", "gamma3": 1.0},
    )
    zero_counts = ("simulator.steps", "finitediff.d2_calls", "perturbations.grid_eval_calls")
    nonzero_counts = ("asymptotics.rhs_evals", "boundary_layer.profile_points",
                      "quadrature.integrate_calls")

    X_MAX = 40.0  # xi reaches past the Airy bridge [-12, -8.4] on both sides

    def __init__(self, seed: int, work_dir: str, z_max: float = 30.0, profile_points: int = 257):
        rng = random.Random(seed)
        dphis = [rng.uniform(2.0 * math.pi / 5.0, math.pi) for _ in range(3)]
        self.inputs = {"delta_phi0": dphis}
        self.cases = []
        for pert in self.PERTURBATIONS:
            for i, dphi in enumerate(dphis):
                cfg = {
                    "perturbation": pert,
                    "epsilon": 0.05,
                    "soliton": {"u_inf": 1.0, "delta_phi0": dphi, "t0": 0.0, "sigma0": 0.0},
                    "run": {"z_max": z_max},
                }
                self.cases.append((f"{pert['label']}_{i}", cfg))
        self.x = np.linspace(-self.X_MAX, self.X_MAX, profile_points)
        self.config_path = _write_config(self.cases[0][1], work_dir)

    def iterate(self, out_dir: str):
        results = []
        for run_id, cfg in self.cases:
            exp = harness.validate(cfg)
            traj = harness.predict(exp)
            path = harness.write_prediction_csv(traj, out_dir, run_id)
            final, shelf = traj.params[-1], traj.shelf[-1]
            layers = []
            for side, q1, phi1t in (("right", shelf.q1_plus, shelf.phi1t_plus),
                                    ("left", shelf.q1_minus, shelf.phi1t_minus)):
                mag = boundary_layer.LayerProfile.at_edge(side, final.u_inf, q1)
                phase = boundary_layer.LayerProfile.at_edge(side, final.u_inf, phi1t)
                layers.append((
                    side, exp.z_max,
                    mag, boundary_layer.shelf_magnitude_profile(mag, exp.z_max, self.x),
                    phase, boundary_layer.shelf_phase_profile(phase, exp.z_max, self.x),
                ))
            results.append((run_id, cfg, traj, path, layers))
        return results

    def check(self, raw) -> Outcome:
        h = _sha256([path for _, _, _, path, _ in raw])
        checks = []
        for run_id, cfg, traj, _, layers in raw:
            checks += [Check(f"{run_id}.{c.name}", c.ok, c.err_over_tol)
                       for c in self._case_checks(cfg, traj, layers)]
            for side, zeta, mag, w, phase, theta in layers:
                h.update(w.tobytes())
                h.update(theta.tobytes())
        return Outcome(h.hexdigest(), checks)

    def _case_checks(self, cfg, traj, layers):
        def graded(name, err, tol):
            err = abs(err) if math.isfinite(err) else math.inf
            return Check(name, err <= tol, err / tol)

        pert = cfg["perturbation"]
        p0, sh0, final = traj.params[0], traj.shelf[0], traj.params[-1]
        exact = _BACKGROUND[pert["label"]](pert, traj.Z[-1])
        yield graded("background_closed_form", final.u_inf / exact - 1.0, 1e-9)
        if pert["label"] == "dispersive_damping":
            # q1+- = -(2/3) gamma (u_inf +- A) sin(delta_phi0 / 2) at Z = 0.
            s = -(2.0 / 3.0) * pert["gamma"] * math.sin(0.5 * p0.delta_phi0)
            yield graded("q1_plus_closed_form", sh0.q1_plus / (s * (p0.u_inf + p0.A)) - 1.0, 1e-9)
            yield graded("q1_minus_closed_form", sh0.q1_minus / (s * (p0.u_inf - p0.A)) - 1.0, 1e-9)
        if pert["label"] != "two_photon":
            yield graded("phase_conservation", asymptotics.phase_conservation_check(traj), 1e-9)
        x0 = int(np.argmin(np.abs(self.x)))
        for side, zeta, mag, w, phase, theta in layers:
            # Magnitude: AiI(0) = 2/3 at the edge, the plateau on the shelf side.
            xi = boundary_layer.similarity_variable(mag, zeta, self.x)
            shelf = int(np.argmax(xi))
            yield graded(f"{side}_magnitude_at_edge", w[x0] / mag.amplitude - 2.0 / 3.0, 1e-10)
            yield graded(f"{side}_magnitude_plateau", w[shelf] / mag.amplitude - 1.0, 1e-6)
            # Phase: theta(0) = -amplitude zeta^(1/3)/a Ai'(0); slope -> plateau on the shelf side.
            scale = phase.amplitude * zeta ** (1.0 / 3.0) / phase.a
            yield graded(f"{side}_phase_at_edge", theta[x0] / scale + _AIRY_PRIME_0, 1e-10)
            step = 1 if shelf == 0 else -1
            slope = (theta[shelf + step] - theta[shelf]) / (self.x[shelf + step] - self.x[shelf])
            yield graded(f"{side}_phase_slope_plateau", slope / phase.amplitude - 1.0, 1e-6)


GREY_ROWS = {"A_velocity_constancy", "edge_speed_left", "edge_speed_right",
             "eps_q1_minus", "eps_q1_plus", "sigma0_rate"}
BLACK_ROWS = {"conservation_drift_E", "conservation_drift_H", "conservation_drift_I",
              "dRdz_plus_I_residual", "fidelity_max_pointwise_dev"}


def make(name: str, seed: int, work_dir: str):
    if name == "grey_compare":
        return CompareWorkload(
            "grey_dispersive", GREY_ROWS, seed, work_dir,
            nonzero_counts=("simulator.steps", "asymptotics.rhs_evals",
                            "simulator.background_lookups", "perturbations.grid_eval_calls",
                            "simulator.measure_calls"))
    if name == "black_fidelity":
        return CompareWorkload(
            "black_unperturbed", BLACK_ROWS, seed, work_dir,
            zero_counts=("asymptotics.rhs_evals", "simulator.background_lookups",
                         "perturbations.grid_eval_calls", "boundary_layer.profile_points"),
            nonzero_counts=("simulator.steps", "finitediff.d2_calls"))
    if name == "cascade_layers":
        return CascadeWorkload(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("grey_compare", "black_fidelity", "cascade_layers")
