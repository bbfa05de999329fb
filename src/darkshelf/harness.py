"""Experiment harness: configs, presets, the prediction/comparison pipelines, reports, plot data and sweeps.

A configuration is a plain JSON document with keys {perturbation, epsilon,
soliton, grid, run, observables, outputs}.  ``predict`` integrates the slow
parameter cascade only; ``simulate`` also runs the PDE and returns the
Artifacts that observables and plot writers read; ``compare`` grades the
observables of ``simulate``'s Artifacts against the asymptotic predictions.
``validate`` parses; the limits belong to the layers (``simulator.SimConfig.check``
for a PDE run, ``asymptotics.slow_steps`` for the cascade), and it turns their
ValueError into a ConfigError naming the field.  The observables, and where
and when each row is measured, are ``observe``'s.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import asymptotics, observe, quadrature, simulator
from .perturbations import BUILTINS, Perturbation
from .soliton import CoreParams


class ConfigError(ValueError):
    """Configuration validation failure; message names the offending field."""


@dataclass
class ComparisonReport:
    rows: list[observe.ComparisonRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dict(self) -> dict[str, Any]:
        rows = [r.as_dict() for r in sorted(self.rows, key=lambda r: r.name)]
        return {"pass": self.passed, "rows": rows, "notes": sorted(self.notes)}

    def table(self) -> str:
        lines = [f"{'observable':38s} {'predicted':>13s} {'measured':>13s} {'error':>9s} {'tol':>7s}  verdict"]
        for r in sorted(self.rows, key=lambda r: r.name):
            lines.append(
                f"{r.name:38s} {r.predicted:13.6g} {r.measured:13.6g} "
                f"{r.error:9.3g} {r.tolerance:7.3g}  {'pass' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines)


PRESETS: dict[str, dict] = {
    "black_dispersive": {
        "perturbation": {"label": "dispersive_damping", "gamma": 1.0},
        "epsilon": 0.05,
        "soliton": {"u_inf": 1.0, "delta_phi0": math.pi, "t0": 0.0, "sigma0": 0.0},
        "grid": {"half_width": 50.0, "n_points": 2048},
        "run": {"z_max": 30.0, "snapshot_dz": 0.5},
        "observables": ["shelf", "black_balance", "sigma0", "edges", "t0", "layer"],
    },
    "grey_dispersive": {
        "perturbation": {"label": "dispersive_damping", "gamma": 1.0},
        "epsilon": 0.05,
        "soliton": {"u_inf": 1.0, "delta_phi0": 4 * math.pi / 5, "t0": 0.0, "sigma0": 0.0},
        "grid": {"half_width": 50.0, "n_points": 1024},
        "run": {"z_max": 30.0, "snapshot_dz": 0.5},
        "observables": ["shelf", "a_constancy", "sigma0", "edges"],
    },
    "black_unperturbed": {
        "perturbation": None,
        "epsilon": 0.0,
        "soliton": {"u_inf": 1.0, "delta_phi0": math.pi, "t0": 0.0, "sigma0": 0.0},
        "grid": {"half_width": 25.0, "n_points": 1024},
        "run": {"z_max": 10.0, "snapshot_dz": 0.5},
        "observables": ["fidelity"],
    },
    "grey_linear_damping": {
        "perturbation": {"label": "linear_damping", "Gamma": 0.5},
        "epsilon": 0.05,
        "soliton": {"u_inf": 1.0, "delta_phi0": 4 * math.pi / 5, "t0": 0.0, "sigma0": 0.0},
        "grid": {"half_width": 50.0, "n_points": 1024},
        "run": {"z_max": 20.0, "snapshot_dz": 0.5},
        "observables": ["shelf"],
    },
}


def load_config(source) -> dict:
    """Load a config dict from a preset name or a JSON file path."""
    if source in PRESETS:
        return json.loads(json.dumps(PRESETS[source]))
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                return json.load(fh)
        except (IsADirectoryError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: {source!r} is not a UTF-8 JSON file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except (RecursionError, ValueError) as exc:  # nested past the decoder's depth; an int past the digit limit
            raise ConfigError(f"config: {source!r} is too deeply nested or holds too long a number: {exc}") from exc
    raise ConfigError(f"config: no preset or file named {source!r}")


_SECTION_KEYS = {"soliton": ("u_inf", "delta_phi0", "t0", "sigma0"),
                 "grid": ("half_width", "n_points"), "run": ("z_max", "snapshot_dz")}
_TOP_KEYS = ("perturbation", "epsilon", *_SECTION_KEYS, "observables", "outputs")


def _section(cfg: dict, key: str) -> dict:
    """cfg[key] as a dict ({} if null); a forcing's strength names depend on its label."""
    node = cfg.get(key)
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{key}: expected an object, got {node!r}")
    unknown = sorted(set(node) - set(_SECTION_KEYS.get(key, node)))
    if unknown:
        raise ConfigError(f"{key}.{unknown[0]}: unknown field")
    return node


def _field(cfg: dict, path: str, integer=False, required=True, default=None):
    """The finite JSON number at ``path`` ("key" or "section.key")."""
    *section, leaf = path.split(".")
    val = (_section(cfg, section[0]) if section else cfg).get(leaf)
    if val is None:
        if required:
            raise ConfigError(f"{path}: required field missing")
        return default
    try:
        num = float(val) if isinstance(val, (int, float)) and not isinstance(val, bool) else math.nan
    except OverflowError:
        num = math.inf
    if not math.isfinite(num) or (integer and not num.is_integer()):
        raise ConfigError(f"{path}: expected a finite {'integer' if integer else 'number'}, got {val!r}")
    return int(num) if integer else num


@dataclass(frozen=True)
class Experiment:
    """Validated, ready-to-run experiment."""

    params: CoreParams
    perturbation: Perturbation | None
    epsilon: float
    grid: simulator.Grid
    z_max: float
    snapshot_dz: float
    observables: tuple[str, ...]
    outputs: tuple[str, ...]  # plot kinds (PLOT_KINDS)


def _perturbation(cfg: dict) -> Perturbation | None:
    if cfg.get("perturbation") is None:
        return None
    pert_cfg = _section(cfg, "perturbation")
    label = pert_cfg.get("label")
    if not isinstance(label, str) or label not in BUILTINS:
        raise ConfigError(f"perturbation.label: unknown {label!r} (have {sorted(BUILTINS)})")
    strengths = {k: _field(cfg, f"perturbation.{k}") for k in pert_cfg if k != "label"}
    try:
        return BUILTINS[label](**strengths)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"perturbation: {exc}") from exc


def _names(cfg: dict, key: str, known, default) -> tuple[str, ...]:
    names = cfg.get(key)
    if names is None:
        return tuple(default)
    if isinstance(names, (list, tuple)) and all(isinstance(n, str) and n in known for n in names):
        return tuple(names)
    raise ConfigError(f"{key}: expected a list drawn from {sorted(set(known))}, got {names!r}")


def validate(cfg: dict) -> Experiment:
    """Check a config dict and build its Experiment; every fault is a
    ConfigError naming the field, raised before any run starts."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown field (have {list(_TOP_KEYS)})")
    eps = _field(cfg, "epsilon")
    if eps < 0.0 or (eps != 0.0 and not math.isfinite(1.0 / eps)):  # 1/eps: z = Z/eps and the shelf scale
        raise ConfigError(f"epsilon: must be finite and non-negative, with 1/epsilon finite, got {eps}")
    pert = _perturbation(cfg)
    if eps != 0.0 and pert is None:
        raise ConfigError("perturbation: required when epsilon != 0")
    strength = None if pert is None else "perturbation." + next(k for k in cfg["perturbation"] if k != "label")
    u_inf, dphi = _field(cfg, "soliton.u_inf"), _field(cfg, "soliton.delta_phi0")
    t0, sigma0 = (_field(cfg, f"soliton.{k}", required=False, default=0.0) for k in ("t0", "sigma0"))
    if not math.isfinite(u_inf * u_inf):
        raise ConfigError(f"soliton.u_inf: {u_inf} is too large")
    try:
        params = CoreParams.from_background(u_inf, dphi, t0=t0, sigma0=sigma0)
    except ValueError as exc:
        raise ConfigError(f"soliton: {exc}") from exc
    if eps != 0.0 and u_inf - params.A < asymptotics.SHALLOW_LIMIT:
        raise ConfigError(f"soliton.delta_phi0: u_inf - A = {u_inf - params.A:.3g} is below the "
                          f"shallow-soliton limit {asymptotics.SHALLOW_LIMIT:g}")
    z_max = _field(cfg, "run.z_max")
    snapshot_dz = _field(cfg, "run.snapshot_dz", required=False, default=simulator.SimConfig.snapshot_dz)
    for path, value in (("run.z_max", z_max), ("run.snapshot_dz", snapshot_dz)):
        if value <= 0.0:
            raise ConfigError(f"{path}: must be positive, got {value}")
    try:
        asymptotics.slow_steps(eps * z_max)
    except ValueError as exc:
        raise ConfigError(f"run.z_max: {exc}") from exc
    sim = simulator.SimConfig(eps, pert, snapshot_dz)
    try:
        grid = _checked_grid(cfg, sim, params, z_max, strength)
    except (ConfigError, OverflowError) as exc:  # OverflowError: auto_grid for a reach past the floats
        if _section(cfg, "grid"):
            raise
        detail = str(exc) if isinstance(exc, ConfigError) else "the reach is past the floats"
        try:  # auto_grid holds |t0|: as check names the reach, the offset is at fault if the run fits from t0 = 0
            _checked_grid(cfg, sim, replace(params, t0=0.0), z_max, strength)
        except (ConfigError, OverflowError):
            if isinstance(exc, ConfigError):
                raise exc
            raise ConfigError(f"run.z_max: no automatic grid holds u_inf*z_max ({detail})") from exc
        raise ConfigError(f"soliton.t0: no automatic grid holds the reach from t0 = {t0} ({detail})") from exc
    core = "black" if params.is_black else "grey"
    defaults = dict.fromkeys(o.name for o in observe.OBSERVABLES if core in o.default_for)
    observables = _names(cfg, "observables", {o.name for o in observe.OBSERVABLES}, defaults)
    if eps != 0.0:
        graded_perturbed = any(o.perturbed_only for o in observe.OBSERVABLES if o.name in observables)
        try:
            asymptotics.check_forcing(pert, params)
            with np.errstate(over="ignore", invalid="ignore"):  # a strength near the float limit: refused below
                sh = asymptotics.grey_parameter_rhs(pert, params) if graded_perturbed else None
        except (ValueError, quadrature.QuadratureError) as exc:
            raise ConfigError(f"{strength}: {exc}") from exc
        if graded_perturbed:  # every perturbed-only row measures an O(eps) shelf effect
            for side, q1 in (("q1_plus", sh.q1_plus), ("q1_minus", sh.q1_minus)):
                plateau = abs(eps * float(q1))
                if not np.finfo(float).tiny <= plateau < math.inf:
                    raise ConfigError(f"{strength}: the shelf plateau |eps*{side}| = {plateau:.3g} is not a normal "
                                      f"float, so the shelf has no measurement window")
    outputs = _names(cfg, "outputs", ("report", *PLOT_KINDS), ())  # compare always writes the report
    return Experiment(params=params, perturbation=pert, epsilon=eps, grid=grid, z_max=z_max,
                      snapshot_dz=snapshot_dz, outputs=tuple(k for k in outputs if k != "report"),
                      observables=observables)


def _checked_grid(cfg: dict, sim: simulator.SimConfig, params: CoreParams, z_max: float, strength) -> simulator.Grid:
    """The config's grid, else auto_grid's, if sim.check admits it; else a ConfigError naming the field."""
    grid_cfg = {"grid": _section(cfg, "grid") or auto_grid(params, z_max)}
    half_width, n_points = _field(grid_cfg, "grid.half_width"), _field(grid_cfg, "grid.n_points", integer=True)
    try:
        grid = simulator.Grid(half_width, n_points)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        sim.check(grid, params, z_max)
    except ValueError as exc:  # it names the field, or "perturbation" for the forcing's strength
        name, _, text = str(exc).partition(": ")
        raise ConfigError(f"{strength if name == 'perturbation' else name}: {text}") from exc
    return grid


def auto_grid(params: CoreParams, z_max: float) -> dict:
    """The narrowest whole half_width SimConfig.check admits at dt <= min(0.1, 1/u_inf), N a multiple of 512:
    simulator.min_half_width of the shelf edges' reach |t0| + dt/2 + u_inf z_max."""
    dt = min(0.1, 1.0 / params.u_inf)
    half = math.ceil(simulator.min_half_width(abs(params.t0) + 0.5 * dt + params.u_inf * z_max))
    n = 512 * math.ceil(2.0 * half / dt / 512)
    return {"half_width": float(half), "n_points": int(max(n, 512))}


# -- Pipelines ---------------------------------------------------------------


def predict(exp: Experiment) -> asymptotics.ParameterTrajectory:
    """Asymptotics only: slow trajectory of core and shelf parameters."""
    return asymptotics.evolve_core_parameters(exp.perturbation, exp.params, exp.epsilon, exp.z_max)


@dataclass(frozen=True)
class Artifacts:
    """One simulated experiment: what the observables measure and the CSVs plot."""

    exp: Experiment
    snapshots: list[simulator.FieldState]
    background: simulator.SimBackground
    traj: asymptotics.ParameterTrajectory

    @property
    def final(self) -> simulator.FieldState:
        return self.snapshots[-1]

    @property
    def shelf0(self) -> asymptotics.ShelfParams:
        return self.traj.shelf[0]


def simulate(exp: Experiment) -> Artifacts:
    """Run the cascade and the PDE: the one way from an Experiment to its Artifacts."""
    traj = predict(exp)
    if exp.epsilon == 0.0:
        background = simulator.SimBackground.constant(exp.params.u_inf)
    else:
        background = simulator.SimBackground.from_perturbation(exp.perturbation, traj)
    cfg = simulator.SimConfig(exp.epsilon, exp.perturbation, exp.snapshot_dz)
    return Artifacts(exp, simulator.run(cfg, exp.grid, exp.params, background, exp.z_max), background, traj)


def compare(exp: Experiment) -> tuple[ComparisonReport, Artifacts]:
    """Simulate, then grade each applicable observable in ``exp.observables``.

    Raises ConfigError before simulating when none applies, so a run cannot
    pass having graded nothing.  A measurement that raises MeasurementError
    or ValueError leaves its declared rows failed (measured NaN) with one note.
    """
    graded = [obs for obs in observe.OBSERVABLES
              if obs.name in exp.observables and (exp.epsilon != 0.0 or not obs.perturbed_only)]
    if not graded:
        raise ConfigError(f"observables: none of {list(exp.observables)} applies "
                          f"at epsilon = {exp.epsilon}, so compare would grade nothing")
    art = simulate(exp)
    report = ComparisonReport()
    for obs in graded:
        declared = obs.rows(art)
        try:
            measured = obs.measure(art)
        except (observe.MeasurementError, ValueError) as exc:
            report.rows += declared
            report.notes.append(f"{declared[0].name}: {exc}")
            continue
        report.rows += [replace(r, measured=m) for r, m in zip(declared, measured, strict=True)]
    return report, art


# -- Output emission ---------------------------------------------------------

PLOT_KINDS = ("profile", "contour", "trajectory", "layer", "snapshots")


def emit_plotdata(art: Artifacts, kinds, out_dir: str, run_id: str) -> list[str]:
    """Write CSV plot data of the given PLOT_KINDS; returns the created paths."""
    os.makedirs(out_dir, exist_ok=True)
    exp, traj = art.exp, art.traj
    written = []
    for kind in kinds:
        path = os.path.join(out_dir, f"{run_id}_{kind}.csv")
        if kind == "snapshots":
            written += [simulator.write_snapshot_csv(s, exp.grid, out_dir, run_id) for s in art.snapshots]
            continue
        if kind == "profile":
            s = art.final
            predicted = observe.composite_magnitude(art, exp.grid.t - traj.comoving_shift(s.z))
            rows = zip(exp.grid.t, s.samples.real, s.samples.imag, np.abs(s.samples),
                       np.unwrap(np.angle(s.samples)), predicted)
            simulator.write_csv(path, ["t", "re", "im", "abs", "phase", "predicted_abs"], rows)
        elif kind == "contour":
            stride = max(1, exp.grid.n_points // 512)
            simulator.write_csv(path, ["z", *map(simulator.FMT.format, exp.grid.t[::stride])],
                                ((s.z, *np.abs(s.samples[::stride])) for s in art.snapshots))
            epath = os.path.join(out_dir, f"{run_id}_contour_edges.csv")
            rows = []
            for s in art.snapshots:
                shift = traj.comoving_shift(s.z)
                rows.append((s.z, *(edge + shift for edge in traj.edges(s.z))))
            simulator.write_csv(epath, ["z", "t_edge_left", "t_edge_right"], rows)
            written.append(epath)
        elif kind == "trajectory":
            _write_trajectory(traj, path)
        elif kind == "layer":
            simulator.write_csv(path, ["x", "sim_abs", "predicted_abs"], zip(*observe.layer_window(art, 8.0, 513)))
        else:
            raise ConfigError(f"outputs: unknown kind {kind!r}")
        written.append(path)
    return written


def write_report(report: ComparisonReport, out_dir: str, run_id: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run_id}_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


_CORE_COLUMNS = ("u_inf", "A", "B", "t0", "sigma0", "delta_phi0")
_SHELF_COLUMNS = ("u_inf_rate", "A_rate", "B_rate", "delta_phi0_rate", "sigma0_rate",
                  "q1_plus", "q1_minus", "phi1t_plus", "phi1t_minus", "delta_phi1")


def _write_trajectory(traj: asymptotics.ParameterTrajectory, path: str) -> None:
    """The prediction table: z, Z, core parameters, shelf rates and plateaus, edges S_L, S_R, one
    row per sample, built column by column."""
    columns = (traj.z, traj.Z, *map(traj.params.column, _CORE_COLUMNS), *map(traj.shelf.column, _SHELF_COLUMNS),
               *traj.edges(traj.z))
    header = ["z", "Z", *_CORE_COLUMNS, *_SHELF_COLUMNS, "S_L", "S_R"]
    simulator.write_csv(path, header, np.column_stack(columns).tolist())


def write_prediction_csv(traj, out_dir: str, run_id: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run_id}_prediction.csv")
    _write_trajectory(traj, path)
    return path


def sweep_configs(base_cfg: dict, delta_phi0_values) -> list[tuple[str, dict]]:
    """Per-angle configs with measurement-aware run length and grid.

    Each angle's config is validated as given and again as it will run, so
    a bad angle, base config or sweep-set size raises ConfigError before any
    run, as do two angles that share a tag (results are keyed by tag).  The
    run length comes from the cascade's plateau predictions q1+- for the
    configured forcing at each angle.
    """
    out = []
    for dphi in delta_phi0_values:
        tag = f"dphi{dphi:.6g}"
        if tag in dict(out):
            raise ConfigError(f"delta_phi0: {dphi!r} repeats the angle tagged {tag!r}")
        cfg = json.loads(json.dumps(base_cfg))
        if isinstance(cfg.get("soliton"), dict):
            cfg["soliton"]["delta_phi0"] = float(dphi)
        exp = validate(cfg)
        if exp.epsilon == 0.0:
            raise ConfigError("epsilon: a sweep grades the shelf, which needs epsilon > 0")
        params, eps = exp.params, exp.epsilon
        sh = asymptotics.grey_parameter_rhs(exp.perturbation, params)
        z_max = max(
            observe.measurement_distance(params, eps, sh.q1_plus, +1),
            observe.measurement_distance(params, eps, sh.q1_minus, -1),
        )
        cfg["run"]["z_max"] = z_max
        cfg["grid"] = auto_grid(params, z_max)
        cfg["observables"] = ["shelf", "a_constancy"]
        try:
            validate(cfg)
        except ConfigError as exc:
            raise ConfigError(f"delta_phi0 {dphi!r}: {exc}") from exc
        out.append((tag, cfg))
    return out


def run_sweep(base_cfg: dict, delta_phi0_values) -> ComparisonReport:
    """Compare across core phase angles, one worker process per angle up to
    the CPU count; see merge_sweep."""
    # Imported here: the pool machinery costs ~1 MB and ~25 ms at startup,
    # which predict and compare do not need.
    from concurrent.futures import ProcessPoolExecutor

    items = sweep_configs(base_cfg, delta_phi0_values)
    with ProcessPoolExecutor(max_workers=min(len(items), os.cpu_count() or 1)) as pool:
        futures = {tag: pool.submit(_sweep_worker, cfg) for tag, cfg in items}
        return merge_sweep({tag: fut.result() for tag, fut in futures.items()})


def merge_sweep(results: dict[str, ComparisonReport]) -> ComparisonReport:
    """One report from per-angle reports; rows and notes prefixed by the angle tag."""
    combined = ComparisonReport()
    for tag in sorted(results):
        combined.rows += [replace(row, name=f"{tag}.{row.name}") for row in results[tag].rows]
        combined.notes += [f"{tag}.{note}" for note in results[tag].notes]
    return combined


def _sweep_worker(cfg: dict) -> ComparisonReport:
    report, _ = compare(validate(cfg))
    return report
