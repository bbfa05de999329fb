import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkshelf import asymptotics, cli, harness, observe, simulator
from darkshelf.perturbations import BUILTINS
from darkshelf.soliton import CoreParams
from test_reach import _configs as reach_configs
from theory_reference import write_trajectory_rows


@pytest.fixture
def no_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated a config that should have been rejected")

    monkeypatch.setattr(simulator, "run", fail)


class TestConfigs:
    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_presets_validate(self, name):
        exp = harness.validate(harness.load_config(name))
        assert exp.grid.n_points >= 256

    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_presets_round_trip(self, name):
        cfg = harness.load_config(name)
        again = json.loads(json.dumps(cfg, sort_keys=True))
        assert again == harness.PRESETS[name]

    def test_unknown_source(self):
        with pytest.raises(harness.ConfigError):
            harness.load_config("no_such_preset")

    def test_missing_field_named(self):
        cfg = harness.load_config("grey_dispersive")
        del cfg["epsilon"]
        with pytest.raises(harness.ConfigError, match="epsilon"):
            harness.validate(cfg)

    def test_unknown_perturbation_label(self):
        cfg = harness.load_config("grey_dispersive")
        cfg["perturbation"]["label"] = "septic_drag"
        with pytest.raises(harness.ConfigError, match="perturbation.label"):
            harness.validate(cfg)

    def test_bad_soliton_rejected(self):
        cfg = harness.load_config("grey_dispersive")
        cfg["soliton"]["delta_phi0"] = 9.0
        with pytest.raises(harness.ConfigError, match="soliton"):
            harness.validate(cfg)

    def test_grid_too_small_for_run(self):
        cfg = harness.load_config("grey_dispersive")
        cfg["grid"]["half_width"] = 20.0
        with pytest.raises(harness.ConfigError, match="half_width"):
            harness.validate(cfg)

    @pytest.mark.parametrize("key, value", [
        ("observables", ["shelf", "no_such_observable"]),
        ("outputs", ["report", "no_such_kind"]),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", -0.05),
        ("epsilon", True),
        ("soliton", "oops"),
        ("perturbation", "x"),
        ("run", 5),
        ("grid", "x"),
        ("no_such_section", {}),
        ("perturbation.gamma", "abc"),
        ("perturbation.gamma", float("nan")),
        ("soliton.u_inf", 1e308),
        ("soliton.t0", float("inf")),
        ("soliton.extra", 1.0),
        ("grid.half_width", None),
        ("grid.n_points", float("inf")),
        ("grid.n_points", 2048.7),
        ("run.z_max", -5.0),
        ("run.snapshot_dz", 0.0),
        ("run.snapshot_dz", -0.5),
        ("grid.n_points", 1e308),  # past the point bound before dt**2 could underflow to 0
        ("grid.n_points", 1e7),  # 3.75e11 RK4 steps
        ("run.z_max", 1e5),  # 3.2e6 cascade steps
    ])
    def test_bad_field_rejected_before_simulation(self, key, value, tmp_path, no_simulation):
        cfg = harness.load_config("grey_dispersive")
        *section, leaf = key.split(".")
        (cfg[section[0]] if section else cfg)[leaf] = value
        with pytest.raises(harness.ConfigError, match=key):
            harness.validate(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2

    def test_snapshot_memory_bounded(self, tmp_path, no_simulation):
        # Stride 1 keeps every step: 52,739 x 8192 complex samples, about 6.4 GiB.
        cfg = harness.load_config("black_dispersive")
        cfg["grid"]["n_points"] = 8192
        cfg["run"]["snapshot_dz"] = 1e-12
        with pytest.raises(harness.ConfigError, match="run.snapshot_dz"):
            harness.validate(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2
        # grey_dispersive keeps all 3,309 states at 2048 points: 103 MiB, inside the bound.
        cfg = harness.load_config("grey_dispersive")
        cfg["run"]["snapshot_dz"] = 1e-12
        assert harness.validate(cfg).snapshot_dz == 1e-12

    def test_step_memory_bounded(self, tmp_path, no_simulation):
        # Two snapshots of 2**25 points fill the bound exactly; one RK4 step's fields do not fit.
        cfg = harness.load_config("black_unperturbed")
        cfg["grid"] = {"half_width": 100.0, "n_points": 2**25}
        cfg["run"]["z_max"] = 1e-9
        with pytest.raises(harness.ConfigError, match="grid.n_points"):
            harness.validate(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2

    @pytest.mark.parametrize("z_max, ok", [(3e4, True), (1e5, False)])
    def test_background_table_memory_bounded(self, z_max, ok, tmp_path, capsys, no_simulation):
        # u_inf = 1e-6 lets a 256-point grid run 7.6e6 steps (2e9 point-steps) at z_max = 1e5: its background
        # table, 256 B per step, passes the bound before any step.  z_max = 3e4 needs 2.3e6 steps, 559 MiB.
        cfg = harness.load_config("black_unperturbed")
        cfg["soliton"]["u_inf"] = 1e-6
        cfg["grid"] = {"half_width": 15.0, "n_points": 256}
        cfg["run"] = {"z_max": z_max, "snapshot_dz": z_max / 2}
        if ok:
            assert harness.validate(cfg).z_max == z_max
            return
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2
        assert "run.z_max: 7.63e+06 PDE steps need 1862 MiB of background table" in capsys.readouterr().err

    @pytest.mark.parametrize("side, past, ok", [(1, -0.2, True), (1, 0.2, False), (-1, 0.2, False), (1, 100.0, False)])
    def test_shelf_edges_must_stay_off_the_boundary(self, side, past, ok, tmp_path, capsys, no_simulation):
        # Edges from t0 travel dt/2 + u_inf z_max = 20.1 on L = 100, which holds |t0| up to
        # min_half_width(|t0| + 20.1) = 100; t0 sits ``past`` that limit.
        cfg = harness.load_config("grey_dispersive")
        limit = simulator.REACH_FRACTION * (100.0 - simulator.CORE_ALLOWANCE) - 20.09765625
        t0 = cfg["soliton"]["t0"] = side * (limit + past)
        cfg["grid"] = {"half_width": 100.0, "n_points": 1024}
        cfg["run"]["z_max"] = 20.0
        if ok:
            assert harness.validate(cfg).params.t0 == t0
        else:
            with pytest.raises(harness.ConfigError, match="soliton.t0"):
                harness.validate(cfg)
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(cfg), encoding="utf-8")
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == 2
            assert "validation error: soliton.t0:" in capsys.readouterr().err

    @pytest.mark.parametrize("forcing", [None, {"label": "two_photon", "gamma3": 1.0}],
                             ids=["dispersive", "two_photon"])
    def test_step_fields_cover_a_traced_run(self, forcing):
        # The traced peak of a short forced run stays within what validate counts for it; two-photon
        # absorption's F[u] allocates the most.
        cfg = harness.load_config("black_dispersive")
        cfg["perturbation"] = forcing or cfg["perturbation"]
        exp = harness.validate(cfg)
        sim = simulator.SimConfig(exp.epsilon, exp.perturbation, exp.snapshot_dz)
        traj = asymptotics.evolve_core_parameters(exp.perturbation, exp.params, exp.epsilon, 1e-3)
        background = simulator.SimBackground.from_perturbation(exp.perturbation, traj)
        tracemalloc.start()
        try:
            snapshots = simulator.run(sim, exp.grid, exp.params, background, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (simulator.STEP_FIELDS + len(snapshots)) * exp.grid.n_points * 16

    @pytest.mark.parametrize("uinf_dt, ok", [(1.0, True), (1.05, False)])
    def test_grid_spacing_bounded_by_background(self, uinf_dt, ok):
        # Past u_inf dt = MAX_UINF_DT the grid samples the core under once per width 1/u_inf.
        cfg = harness.load_config("black_unperturbed")
        cfg["grid"] = {"half_width": 128.0 * uinf_dt, "n_points": 256}
        if ok:
            assert harness.validate(cfg).grid.dt == uinf_dt
        else:
            with pytest.raises(harness.ConfigError, match="grid.n_points"):
                harness.validate(cfg)

    @pytest.mark.parametrize("uinf_dt, limit", [(1e-3, 0.1987), (0.5, 0.2165), (1.0, 0.2629),
                                                (simulator.MAX_UINF_DT, 0.2649)],
                             ids=["uinf_dt_0", "uinf_dt_0.5", "uinf_dt_1", "uinf_dt_max"])
    def test_dispersive_damping_bounded_by_the_step(self, uinf_dt, limit, no_simulation):
        # Linearized about u_inf, eps gamma u_tt damps each mode a = -eig(D2)/2 in [0, 8/3] dt^-2 by 2 eps gamma a:
        # lambda = -2 eps gamma a +- i sqrt(a (a + 2 u_inf^2)).  RK4 at dz = dz_per_dt2 dt^2 holds these up to an
        # eps gamma found here on a fine sweep of a; validate accepts just inside it and refuses just outside.
        # u_inf dt = 1e-3 stands for 0 (the limit there is 0.19871, as at 1e-9): a grid holding CORE_ALLOWANCE at
        # u_inf dt = 1e-9 needs 7e9 points.
        a = np.linspace(0.0, 8.0 / 3.0, 100_001)

        def holds(eps_gamma):
            x = simulator.dz_per_dt2(uinf_dt) * (-2.0 * eps_gamma * a + 1j * np.sqrt(a * (a + 2.0 * uinf_dt**2)))
            return np.max(np.abs(1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24)) <= 1.0 + 1e-12

        lo, hi = 0.01, 1.0
        assert holds(lo) and not holds(hi)
        while hi - lo > 1e-9:
            lo, hi = ((lo + hi) / 2, hi) if holds((lo + hi) / 2) else (lo, (lo + hi) / 2)
        assert lo == pytest.approx(limit, abs=5e-4)
        cfg = harness.load_config("grey_dispersive")
        cfg["grid"], cfg["run"] = {"half_width": 4096.0 * uinf_dt, "n_points": 8192}, {"z_max": 1e-12}
        for eps_gamma, ok in ((lo * (1 - 1e-6), True), (hi * (1 + 1e-6), False)):
            cfg["perturbation"]["gamma"] = eps_gamma / cfg["epsilon"]
            if ok:
                assert harness.validate(cfg).grid.dt == pytest.approx(uinf_dt, rel=1e-12)
            else:
                with pytest.raises(harness.ConfigError, match="perturbation.gamma: the u_tt coefficient"):
                    harness.validate(cfg)

    def test_underflowing_grid_spacing_rejected(self):
        # dt = 1e-290 / 512 would underflow dt**2 to 0 in SimConfig.resolve; a half_width under CORE_ALLOWANCE
        # is refused before that.
        cfg = harness.load_config("black_unperturbed")
        cfg["soliton"]["u_inf"], cfg["run"]["z_max"], cfg["grid"]["half_width"] = 1e-200, 1e-100, 1e-290
        with pytest.raises(harness.ConfigError, match="^grid.half_width: "):
            harness.validate(cfg)

    @pytest.mark.parametrize("preset, changes", [
        ("grey_dispersive", {"epsilon": 0.0, "observables": None}),  # defaults need epsilon != 0
        ("black_unperturbed", {"observables": ["shelf"]}),
        ("grey_dispersive", {"observables": []}),
        ("grey_dispersive", {"epsilon": 0.0, "observables": ["shelf"]}),  # a forcing, but no shelf at epsilon = 0
    ])
    def test_compare_needs_an_applicable_observable(self, preset, changes, tmp_path, no_simulation):
        cfg = harness.load_config(preset) | changes
        with pytest.raises(harness.ConfigError, match="observables"):
            harness.compare(harness.validate(cfg))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2

    def test_shallow_soliton_rejected(self, tmp_path):
        # u_inf - A = 0 at delta_phi0 = 1e-10: the cascade's q1+ would diverge.
        cfg = harness.load_config("grey_dispersive")
        cfg["soliton"]["delta_phi0"] = 1e-10
        with pytest.raises(harness.ConfigError, match="soliton.delta_phi0"):
            harness.validate(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == 2
        cfg["epsilon"] = 0.0  # no cascade, no limit
        cfg["perturbation"] = None
        assert harness.validate(cfg).params.delta_phi0 == 1e-10

    def test_cascade_breakdown_is_runtime_error(self, tmp_path):
        # Inside the limit at z = 0, but linear damping shrinks u_inf - A below it.
        cfg = harness.load_config("grey_linear_damping")
        cfg["soliton"]["delta_phi0"] = 1e-4
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == 3

    def test_background_collapse_is_runtime_error(self, tmp_path):
        # Two-photon absorption at gamma3 = 1e4 passes validation.  The exact background (1 + 2 gamma3 Z)^(-1/2)
        # stays positive (0.0316 at Z = 0.05), but the cascade's background solve, plain Picard iteration on
        # u_inf (only A takes Newton steps), diverges on a segment one table interval long, so the cascade
        # stops there.
        cfg = {"perturbation": {"label": "two_photon", "gamma3": 1e4}, "epsilon": 0.05,
               "soliton": {"u_inf": 1.0, "delta_phi0": 4 * math.pi / 5},
               "grid": {"half_width": 15.0, "n_points": 256}, "run": {"z_max": 1.0}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in ("predict", "compare"):
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), command]) == 3

    def test_quadrature_failure_is_runtime_error(self, tmp_path):
        # At gamma3 = 1000 and delta_phi0 = 0.001 the cascade's soliton integrals stop converging.
        cfg = {"perturbation": {"label": "two_photon", "gamma3": 1000.0}, "epsilon": 0.05,
               "soliton": {"u_inf": 1.0, "delta_phi0": 0.001},
               "grid": {"half_width": 15.0, "n_points": 256}, "run": {"z_max": 1.0}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == 3
        assert not (tmp_path / "predict_prediction.csv").exists()

    def test_default_observables_from_table(self):
        black = harness.validate(harness.load_config("black_unperturbed") | {"observables": None})
        grey = harness.validate(harness.load_config("grey_dispersive") | {"observables": None})
        assert black.observables == ("shelf", "black_balance", "sigma0", "edges", "t0", "layer")
        assert grey.observables == ("shelf", "a_constancy")

    def test_auto_grid_respects_domain_rule(self):
        params = CoreParams.from_background(1.0, 2 * math.pi / 5)
        g = harness.auto_grid(params, 75.0)
        least = simulator.min_half_width(75.0 + 0.05)  # the reach at dt = 0.1
        assert least <= g["half_width"] < least + 1.0
        assert g["n_points"] % 512 == 0

    @settings(max_examples=200, deadline=None)
    @given(u_inf=st.floats(0.05, 20.0), dphi=st.floats(0.3, math.pi), t0=st.floats(-50.0, 50.0),
           z_max=st.floats(0.01, 40.0))
    def test_auto_grid_holds_the_reach(self, u_inf, dphi, t0, z_max):
        # No forcing, so no cascade or step-growth limit, and the run's size stays inside its bounds.
        cfg = {"perturbation": None, "epsilon": 0.0, "soliton": {"u_inf": u_inf, "delta_phi0": dphi, "t0": t0},
               "run": {"z_max": z_max}, "observables": ["fidelity"]}
        exp = harness.validate(cfg)
        g = harness.auto_grid(exp.params, z_max)
        assert (exp.grid.half_width, exp.grid.n_points) == (g["half_width"], g["n_points"])
        reach = abs(t0) + 0.5 * exp.grid.dt + u_inf * z_max
        assert simulator.min_half_width(reach) <= exp.grid.half_width
        # Within a fixed factor of the reach past the allowance: a whole half_width, sized at the coarsest dt.
        assert exp.grid.half_width < simulator.min_half_width(reach + 0.05) + 1.0
        assert exp.grid.dt <= min(0.1, 1.0 / u_inf)

    def test_measurement_distance_scales_with_shallowness(self):
        deep = CoreParams.from_background(1.0, 4 * math.pi / 5)
        shallow = CoreParams.from_background(1.0, 2 * math.pi / 5)
        z_deep = observe.measurement_distance(deep, 0.05, -0.83, +1)
        z_shallow = observe.measurement_distance(shallow, 0.05, -0.71, +1)
        assert z_shallow > 2 * z_deep


def _run_objects(cfg: dict):
    """The SimConfig, grid, soliton and z_max that validate builds from ``cfg``, built without validate."""
    pert_cfg, sol, run_cfg = cfg["perturbation"], cfg["soliton"], cfg["run"]
    pert = None if pert_cfg is None else BUILTINS[pert_cfg["label"]](
        **{k: v for k, v in pert_cfg.items() if k != "label"})
    params = CoreParams.from_background(sol["u_inf"], sol["delta_phi0"], t0=sol.get("t0", 0.0))
    grid = simulator.Grid(cfg["grid"]["half_width"], int(cfg["grid"]["n_points"]))
    snapshot_dz = run_cfg.get("snapshot_dz", simulator.SimConfig.snapshot_dz)
    return simulator.SimConfig(cfg["epsilon"], pert, snapshot_dz), grid, params, run_cfg["z_max"]


class TestRunRefusals:
    """validate and simulator.run refuse the same runs, for the same field and in the same words."""

    @pytest.mark.parametrize("preset, changes, field", [
        ("black_unperturbed", {"grid": {"half_width": 134.4, "n_points": 256}}, "grid.n_points"),  # u_inf dt 1.05
        ("grey_dispersive", {"grid": {"half_width": 20.0, "n_points": 2048}}, "grid.half_width"),
        ("grey_dispersive", {"soliton.t0": 70.0, "grid": {"half_width": 100.0, "n_points": 1024},
                             "run.z_max": 20.0}, "soliton.t0"),
        ("grey_dispersive", {"perturbation.gamma": 6.0, "grid": {"half_width": 128.0, "n_points": 256},
                             "run.z_max": 1.0}, "perturbation.gamma"),  # eps gamma = 0.3 at u_inf dt = 1
        ("grey_dispersive", {"grid": {"half_width": 100.0, "n_points": 10**7}}, "grid.n_points"),  # 3.75e11 steps
        ("black_dispersive", {"grid": {"half_width": 100.0, "n_points": 8192}, "run.snapshot_dz": 1e-12},
         "run.snapshot_dz"),  # 6.4 GiB of snapshots
    ], ids=["uinf_dt", "half_width", "reach", "step_growth", "point_steps", "snapshot_memory"])
    def test_run_refuses_what_validate_refuses(self, preset, changes, field, monkeypatch):
        cfg = harness.load_config(preset)
        for key, value in changes.items():
            *section, leaf = key.split(".")
            (cfg[section[0]] if section else cfg)[leaf] = value
        with pytest.raises(harness.ConfigError, match=f"^{field}: ") as refused:
            harness.validate(cfg)

        def no_step(*args, **kwargs):
            raise AssertionError("stepped a run that validate refuses")

        monkeypatch.setattr(simulator, "second_derivative", no_step)  # every stage calls it
        sim, grid, params, z_max = _run_objects(cfg)
        with pytest.raises(ValueError) as run_refused:
            simulator.run(sim, grid, params, simulator.SimBackground.constant(params.u_inf), z_max)
        run_field, _, text = str(run_refused.value).partition(": ")
        assert run_field == ("perturbation" if field.startswith("perturbation.") else field)
        assert text == str(refused.value).partition(": ")[2]

    def test_run_resolves_its_step_once(self, monkeypatch):
        resolve, calls = simulator.SimConfig.resolve, []

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(simulator.SimConfig, "resolve", counted)
        sim, grid, params, z_max = _run_objects(_console_cfg(_FORCINGS["dispersive_damping"]))
        simulator.run(sim, grid, params, simulator.SimBackground.constant(params.u_inf), z_max)
        assert len(calls) == 1


def _one_field_replaced():
    """(preset, path) for every field of every preset, with and without a grid."""
    bases = {**harness.PRESETS,
             **{f"{n}/auto_grid": {k: v for k, v in c.items() if k != "grid"} for n, c in harness.PRESETS.items()}}
    cases = []
    for name, cfg in bases.items():
        for key, val in cfg.items():
            cases.append((name, key))
            cases += [(name, f"{key}.{sub}") for sub in (val if isinstance(val, dict) else ())]
    return bases, sorted(cases)


_BASES, _FIELDS = _one_field_replaced()
_BAD_VALUES = [None, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, 1e308, 2048.7]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FIELDS), st.sampled_from(_BAD_VALUES))
def test_any_one_bad_field_is_experiment_or_config_error(field, value):
    name, key = field
    cfg = json.loads(json.dumps(_BASES[name]))
    *section, leaf = key.split(".")
    (cfg[section[0]] if section else cfg)[leaf] = value
    try:
        exp = harness.validate(cfg)
    except harness.ConfigError:
        return
    assert isinstance(exp, harness.Experiment)


class TestPredict:
    def test_prediction_csv(self, tmp_path, monkeypatch):
        exp = harness.validate(harness.load_config("grey_dispersive"))
        monkeypatch.setattr(asymptotics, "SAMPLES", 41)
        traj = harness.predict(exp)
        path = harness.write_prediction_csv(traj, tmp_path, "p")
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        cols = {name: rows[:, i] for i, name in enumerate(header)}
        # Dispersive damping: constant rates, sigma0 rate at the closed form.
        a = exp.params.delta_phi0 / 2
        expect = -(4.0 / 3.0) * math.sin(a) ** 3
        np.testing.assert_allclose(cols["sigma0_rate"], expect, rtol=1e-9)
        np.testing.assert_allclose(cols["A_rate"], 0.0, atol=1e-10)
        np.testing.assert_allclose(cols["q1_plus"], -(2 / 3) * (1 + exp.params.A) * math.sin(a), rtol=1e-9)
        assert cols["S_R"][-1] == pytest.approx((1 - exp.params.A) * exp.z_max, rel=1e-9)

    def test_black_prediction_rows(self, tmp_path, monkeypatch):
        exp = harness.validate(harness.load_config("black_dispersive"))
        monkeypatch.setattr(asymptotics, "SAMPLES", 11)
        traj = harness.predict(exp)
        sh = traj.shelf[0]
        assert sh.q1_plus == pytest.approx(-(2.0 / 3.0), abs=1e-10)
        assert traj.params[-1].sigma0 == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("label, epsilon, params", [
        (None, 0.0, CoreParams.from_background(1.0, math.pi)),
        (None, 0.0, CoreParams(u_inf=1, A=0.6, B=0.8, t0=2, sigma0=1)),  # integer fields, as a config may give
        *((label, 0.05, CoreParams.from_background(1.0, 2.0, t0=0.3, sigma0=1.0)) for label in BUILTINS),
        ("dispersive_damping", 0.05, CoreParams.from_background(1.0, math.pi)),
        ("linear_damping", -0.05, CoreParams.from_background(1.0, 2.0)),
    ])
    def test_prediction_csv_matches_row_reference(self, tmp_path, label, epsilon, params):
        # The column-wise writer against the row-object one, byte for byte.
        strength = {"dispersive_damping": 1.0, "linear_damping": 0.5, "two_photon": 1.0}
        pert = BUILTINS[label](strength[label]) if label else None
        traj = asymptotics.evolve_core_parameters(pert, params, epsilon, 20.0)
        path = harness.write_prediction_csv(traj, tmp_path, "p")
        write_trajectory_rows(traj, tmp_path / "reference.csv")
        assert open(path, "rb").read() == (tmp_path / "reference.csv").read_bytes()

    def test_epsilon_zero_all_rates_zero(self, monkeypatch):
        cfg = harness.load_config("black_unperturbed")
        exp = harness.validate(cfg)
        monkeypatch.setattr(asymptotics, "SAMPLES", 11)
        traj = harness.predict(exp)
        assert all(s.sigma0_rate == 0.0 and s.q1_plus == 0.0 for s in traj.shelf)


class TestDeterminism:
    def _tiny_cfg(self):
        return {
            "perturbation": {"label": "dispersive_damping", "gamma": 1.0},
            "epsilon": 0.05,
            "soliton": {"u_inf": 1.0, "delta_phi0": math.pi},
            "grid": {"half_width": 15.0, "n_points": 512},
            "run": {"z_max": 2.0, "snapshot_dz": 0.5},
            "outputs": ["profile", "trajectory", "contour"],
        }

    def test_byte_identical_outputs(self, tmp_path):
        out = {}
        for tag in ("a", "b"):
            artifacts = harness.simulate(harness.validate(self._tiny_cfg()))
            files = harness.emit_plotdata(artifacts, ["profile", "trajectory", "contour"],
                                          str(tmp_path / tag), "t")
            out[tag] = {f.split("/")[-1]: open(f, "rb").read() for f in files}
        assert out["a"] == out["b"]
        assert len(out["a"]) == 4  # profile, trajectory, contour + edge overlay


def test_profile_prediction_uses_final_background(tmp_path):
    # Linear damping: u_inf decays to exp(-eps Gamma z_max) = exp(-0.5), which
    # predicted_abs must reach outside the shelf edges at the grid ends.
    cfg = dict(TestDeterminism()._tiny_cfg(), perturbation={"label": "linear_damping", "Gamma": 5.0})
    art = harness.simulate(harness.validate(cfg))
    (path,) = harness.emit_plotdata(art, ["profile"], str(tmp_path), "t")
    predicted = np.loadtxt(path, delimiter=",", skiprows=1)[:, -1]
    u_final = art.traj.params[-1].u_inf
    assert u_final == pytest.approx(math.exp(-0.5), rel=1e-9)
    for end in (predicted[0], predicted[-1]):
        assert end == pytest.approx(u_final, abs=0.01)  # the edge layers' Airy tails stay below 0.01


def test_simulate_integrates_the_background_once(monkeypatch):
    # The PDE's boundary reads the cascade's u_inf column; nothing steps the background ODE again.
    calls = []
    reference = asymptotics.evolve_background

    def counted(*args, **kwargs):
        calls.append(args)
        return reference(*args, **kwargs)

    for module in (asymptotics, simulator, harness):
        if getattr(module, "evolve_background", None) is reference:
            monkeypatch.setattr(module, "evolve_background", counted)
    cfg = dict(TestDeterminism()._tiny_cfg(), perturbation={"label": "linear_damping", "Gamma": 0.5})
    art = harness.simulate(harness.validate(cfg))
    assert calls == []
    assert art.background.u_inf_fn(art.traj.z[-1]) == art.traj.params[-1].u_inf < 1.0


def test_layer_window_predicts_the_composite_at_the_final_background():
    # The layer prediction is the profile's predicted |u| at comoving x + S_R, over a
    # window of 8 similarity widths of the decayed background u_inf(z_max) = exp(-0.5).
    cfg = dict(TestDeterminism()._tiny_cfg(), perturbation={"label": "linear_damping", "Gamma": 5.0})
    art = harness.simulate(harness.validate(cfg))
    x, _, predicted = observe.layer_window(art, 8.0, 513)
    _, s_r = art.traj.edges(art.final.z)
    u_final = art.traj.params[-1].u_inf
    assert x[-1] == pytest.approx(8.0 * 2.0 ** (1.0 / 3.0) / (2.0 * (u_final / 3.0) ** (1.0 / 3.0)), rel=1e-12)
    np.testing.assert_array_equal(predicted, observe.composite_magnitude(art, x + s_r))


class TestCompareDegradation:
    def test_no_observable_crashes_compare(self, monkeypatch):
        def fail(*args, **kwargs):
            raise observe.MeasurementError("patched to fail")

        for name in ("measure_shelf", "measure_sigma0_rate", "track_edges", "measure_core_minimum"):
            monkeypatch.setattr(observe, name, fail)
        cfg = TestDeterminism()._tiny_cfg()
        cfg["observables"] = sorted({o.name for o in observe.OBSERVABLES})
        report, _ = harness.compare(harness.validate(cfg))
        rows = {r.name: r for r in report.rows}
        # Declared rows of each measurement that calls a patched function
        # (shelf sides, black_balance, sigma0, edges, t0, a_constancy); each
        # failed measurement leaves one note.
        failed = [["eps_q1_plus"], ["eps_q1_minus"], ["eps_q1_diff_signed", "phi1t_sum"],
                  ["sigma0_rate"], ["edge_speed_right", "edge_speed_left"], ["t0_drift"],
                  ["A_velocity_constancy"]]
        for names in failed:
            assert all(math.isnan(rows[n].measured) and not rows[n].passed for n in names)
            assert sum(note.startswith(f"{names[0]}: patched") for note in report.notes) == 1
        assert len(report.notes) == len(failed)

    def test_observables_pick_their_shelf_windows(self, monkeypatch):
        # shelf: [shelf_margin, 0.7 S_R] and [0.7 S_L, -shelf_margin] at z_m = 20;
        # black_balance: +-10/B on the final snapshot, z = 25.
        calls = []

        def record(snap, grid, shift, window, epsilon, u_inf):
            calls.append((snap.z, window))
            return 0.0, 0.0, True

        monkeypatch.setattr(observe, "measure_shelf", record)
        cfg = dict(TestDeterminism()._tiny_cfg(), observables=["shelf", "black_balance"],
                   grid={"half_width": 80.0, "n_points": 512}, run={"z_max": 25.0, "snapshot_dz": 0.5})
        _, art = harness.compare(harness.validate(cfg))
        params, eps, sh0, edges = art.exp.params, art.exp.epsilon, art.shelf0, art.traj.edges
        right, left = (observe.shelf_margin(params, eps, q1) for q1 in (sh0.q1_plus, sh0.q1_minus))
        core = 10.0 / params.B
        assert [z for z, _ in calls] == [20.0, 20.0, 25.0, 25.0]
        assert calls[0][1] == (right, 0.7 * edges(20.0)[1])
        assert calls[1][1] == (0.7 * edges(20.0)[0], -left)
        assert calls[2][1] == (core, 0.7 * edges(25.0)[1])
        assert calls[3][1] == (0.7 * edges(25.0)[0], -core)

    def test_late_fits_keep_the_final_snapshot(self, monkeypatch):
        # 650 steps of 12.6/650 end at z = 12.600000000000001; the final snapshot is kept at z_max.
        seen = {}

        def record(name):
            def fit(snapshots, *args):
                seen[name] = [s.z for s in snapshots]
                return (0.0, 0.0) if name == "track_edges" else 0.0
            return fit

        for name in ("track_edges", "measure_sigma0_rate"):
            monkeypatch.setattr(observe, name, record(name))
        cfg = dict(TestDeterminism()._tiny_cfg(), observables=["sigma0", "edges"],
                   grid={"half_width": 40.0, "n_points": 512}, run={"z_max": 12.6, "snapshot_dz": 0.5})
        _, art = harness.compare(harness.validate(cfg))
        late = [s.z for s in art.snapshots if s.z >= 10.0]
        assert art.final.z == 12.6 and late[-1] == art.final.z
        assert seen == {"track_edges": late, "measure_sigma0_rate": late}

    def test_a_constancy_fits_the_final_snapshot(self, monkeypatch):
        # The dip "moves" only in the final snapshot, z = z_max = 12.6, so only a
        # second fit over [7.6, 12.6] that includes it sees a velocity.
        monkeypatch.setattr(observe, "measure_core_minimum", lambda s, grid: (float(s.z == 12.6), 1.0))
        cfg = harness.load_config("grey_dispersive")
        cfg.update(observables=["a_constancy"], grid={"half_width": 40.0, "n_points": 512},
                   run={"z_max": 12.6, "snapshot_dz": 0.5})
        report, art = harness.compare(harness.validate(cfg))
        zs = np.array([s.z for s in art.snapshots])
        fit = zs >= 12.6 - 5.0
        expected = np.polyfit(zs[fit], zs[fit] == 12.6, 1)[0] / art.exp.params.A
        assert zs[-1] == 12.6
        assert report.rows[0].measured == pytest.approx(expected, rel=1e-12) and expected > 0.1

    def test_linear_damping_shelf_rows_finite(self, preset_compare):
        # The plateau is graded against the decayed background u_inf(z_m), not u_inf(0).
        report, _, _ = preset_compare("grey_linear_damping")
        assert {r.name for r in report.rows} == {"eps_q1_plus", "eps_q1_minus"}
        assert all(math.isfinite(r.measured) for r in report.rows)
        assert report.notes == []

    def test_coarse_grid_flags_rows(self):
        # N = 256 cannot host the plateau windows: rows fail, nothing crashes.
        cfg = {
            "perturbation": {"label": "dispersive_damping", "gamma": 1.0},
            "epsilon": 0.05,
            "soliton": {"u_inf": 1.0, "delta_phi0": math.pi},
            "grid": {"half_width": 40.0, "n_points": 256},
            "run": {"z_max": 10.0, "snapshot_dz": 0.5},
            "observables": ["shelf", "black_balance"],
        }
        report, _ = harness.compare(harness.validate(cfg))
        assert not report.passed
        assert any(r.measured != r.measured for r in report.rows)  # NaN markers
        assert report.notes


class _Reads:
    """A Protocol that records the name of every field read from it."""

    def __init__(self, protocol):
        self.protocol, self.names = protocol, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.protocol, name)


class TestProtocol:
    def test_every_field_is_read(self, monkeypatch):
        # Every observable measured on the tiny grey and black configs of the reach test.
        reads = _Reads(observe.PROTOCOL)
        monkeypatch.setattr(observe, "PROTOCOL", reads)
        every = sorted({o.name for o in observe.OBSERVABLES} - {"fidelity"})
        for name in ("grey", "black"):
            harness.compare(harness.validate(dict(reach_configs()[name], observables=every)))
        assert {f.name for f in dataclasses.fields(observe.Protocol)} - reads.names == set()

    def test_window_end_moves_distance_and_window(self, monkeypatch):
        # On the reach test's grey config, window_end 0.5 moves the + side's distance from 20 to 25 and the
        # shelf window's end to 0.5 S_R.
        windows = []

        def record(snap, grid, shift, window, epsilon, u_inf):
            windows.append((snap.z, window))
            return 0.0, 0.0, True

        monkeypatch.setattr(observe, "measure_shelf", record)
        exp = harness.validate(dict(reach_configs()["grey"], observables=["shelf"]))
        q1 = asymptotics.grey_parameter_rhs(exp.perturbation, exp.params).q1_plus
        assert observe.measurement_distance(exp.params, exp.epsilon, q1, +1) == 20.0
        monkeypatch.setattr(observe, "PROTOCOL", dataclasses.replace(observe.PROTOCOL, window_end=0.5))
        assert observe.measurement_distance(exp.params, exp.epsilon, q1, +1) == 25.0
        _, art = harness.compare(exp)
        (z_plus, (_, end_plus)), (z_minus, (end_minus, _)) = windows
        assert end_plus == 0.5 * art.traj.edges(z_plus)[1] and end_minus == 0.5 * art.traj.edges(z_minus)[0]


class TestNarrowDomain:
    """The reach rule in place of L >= 3 u_inf z_max: on the narrowest domain check admits (dt = 0.078125, N even),
    |u| over the edges' reach matches the same run on a domain three times the reach, at the same dt and steps.
    Short runs test CORE_ALLOWANCE, long ones REACH_FRACTION."""

    @pytest.mark.parametrize("z_max", [10.0, 30.0])
    @pytest.mark.parametrize("preset", ["black_unperturbed", "grey_dispersive", "grey_linear_damping"])
    def test_narrow_domain_matches_wide(self, preset, z_max):
        dt = 0.078125
        narrowest = 2 * math.ceil(simulator.min_half_width(z_max + dt / 2) / dt)
        inner = []
        for n_points in (narrowest, 2 * math.ceil(3.0 * z_max / dt)):
            cfg = harness.load_config(preset)
            cfg["grid"], cfg["run"]["z_max"] = {"half_width": n_points * dt / 2, "n_points": n_points}, z_max
            art = harness.simulate(harness.validate(cfg))
            reach = np.abs(art.exp.grid.t) <= art.exp.params.u_inf * art.exp.z_max
            inner.append((art.exp.grid.t[reach], np.abs(art.final.samples[reach])))
        (t_narrow, u_narrow), (t_wide, u_wide) = inner
        np.testing.assert_allclose(t_narrow, t_wide, rtol=0, atol=1e-12)
        if art.exp.epsilon == 0.0:
            bound = 1e-6  # the fidelity row's tolerance
        else:  # 1% of the smaller predicted plateau
            bound = 0.01 * art.exp.epsilon * min(abs(art.shelf0.q1_plus), abs(art.shelf0.q1_minus))
        assert np.max(np.abs(u_narrow - u_wide)) <= bound


class TestSweep:
    def test_sweep_configs_examples(self):
        base = harness.load_config("grey_dispersive")
        items = harness.sweep_configs(base, [4 * math.pi / 5, 2 * math.pi / 5])
        by_tag = dict(items)
        deep = by_tag["dphi2.51327"]
        shallow = by_tag["dphi1.25664"]
        assert shallow["run"]["z_max"] > deep["run"]["z_max"]
        assert simulator.min_half_width(shallow["run"]["z_max"]) <= shallow["grid"]["half_width"]

    def test_sweep_configs_validate_the_config_each_angle_runs(self):
        # At 0.4 the sweep's own run length and grid keep 1.8 GiB of snapshots.
        base = harness.load_config("grey_dispersive")
        with pytest.raises(harness.ConfigError, match=r"delta_phi0 0\.4: run\.snapshot_dz"):
            harness.sweep_configs(base, [4 * math.pi / 5, 0.4])

    def test_merge_keeps_per_angle_notes(self):
        # Per-angle reports as a failing shelf measurement leaves them.
        def failed(note):
            row = observe.ComparisonRow("eps_q1_plus", -0.03, float("nan"), 0.10)
            return harness.ComparisonReport(rows=[row], notes=[note])

        merged = harness.merge_sweep({"dphi2.51327": failed("eps_q1_plus: no plateau"),
                                      "dphi1.25664": failed("eps_q1_plus: too short")})
        assert [r.name for r in merged.rows] == ["dphi1.25664.eps_q1_plus", "dphi2.51327.eps_q1_plus"]
        assert merged.as_dict()["notes"] == ["dphi1.25664.eps_q1_plus: too short",
                                             "dphi2.51327.eps_q1_plus: no plateau"]
        assert not merged.passed

    def test_sweep_configs_linear_damping(self):
        # Run length from the cascade's q1+- (+0.344/+0.182 at 2pi/5), not the
        # dispersive closed form.
        base = harness.load_config("grey_linear_damping")
        (tag, cfg), = harness.sweep_configs(base, [2 * math.pi / 5])
        assert cfg["run"]["z_max"] == 75.0
        assert cfg["grid"] == {"half_width": 119.0, "n_points": 2560}


def _console_cfg(perturbation, delta_phi0=math.pi, grid=(15.0, 256), z_max=1.0, **top):
    """A unit-background config with epsilon = 0.05 (``top`` overrides top-level keys)."""
    return {"perturbation": perturbation, "epsilon": 0.05, "soliton": {"u_inf": 1.0, "delta_phi0": delta_phi0},
            "grid": {"half_width": grid[0], "n_points": grid[1]}, "run": {"z_max": z_max}, **top}


_FORCINGS = {"dispersive_damping": {"label": "dispersive_damping", "gamma": 1.0},
             "linear_damping": {"label": "linear_damping", "Gamma": 0.5},
             "two_photon": {"label": "two_photon", "gamma3": 1.0}}
_PDE_FILES = ("emit_z0.csv", "emit_z1.csv", "emit_profile.csv", "emit_contour.csv",
              "emit_contour_edges.csv", "emit_layer.csv", "emit_trajectory.csv")
_TINY_EPS = dict(epsilon=1e-308, delta_phi0=2.5, grid=(40.0, 512), z_max=12.0)

# One row per console case: config, commands, exit code, text stderr holds, files written non-empty.
# Exit 2 must come before any cascade or PDE step.
CONSOLE_CASES = [
    *(pytest.param(_console_cfg(pert, math.pi if label == "dispersive_damping" else 4 * math.pi / 5),
                   ["emit --kinds snapshots", "emit --kinds profile contour layer trajectory"], 0, "", _PDE_FILES,
                   id=f"pde_{label}") for label, pert in _FORCINGS.items()),
    # At z_max = 1e-306 the edge layers' similarity variable reaches 1e104.
    pytest.param(_console_cfg(_FORCINGS["dispersive_damping"], z_max=1e-306), ["emit --kinds profile"], 0, "",
                 ["emit_profile.csv"], id="thin_layer"),
    # At gamma3 = 2000 the background falls to 0.07 by z_max = 1; the cascade shortens its segments there.
    pytest.param(_console_cfg({"label": "two_photon", "gamma3": 2000.0}, 2.5), ["predict"], 0, "",
                 ["predict_prediction.csv"], id="strong_two_photon"),
    # eps gamma = 0.5 and 0.3 at u_inf dt = 0.098 and 1.0: past what RK4 at dz = dz_per_dt2 dt^2 holds, so the
    # PDE's norm would blow up mid-run.
    pytest.param(harness.load_config("grey_dispersive") | {"perturbation": {"label": "dispersive_damping",
                                                                            "gamma": 10.0}},
                 ["compare"], 2, "validation error: perturbation.gamma: the u_tt coefficient", [],
                 id="eps_gamma_0.5"),
    pytest.param(_console_cfg({"label": "dispersive_damping", "gamma": 6.0}, 4 * math.pi / 5, (128.0, 256), 42.0),
                 ["compare"], 2, "validation error: perturbation.gamma: the u_tt coefficient", [],
                 id="eps_gamma_0.3_uinf_dt_1"),
    # Rows that eps scales have nothing to measure when eps*q1 is subnormal or zero (sigma0 would read 5e+302).
    *(pytest.param(_console_cfg(_FORCINGS["two_photon"], observables=[obs], **_TINY_EPS), ["compare"], 2,
                   "validation error: perturbation.gamma3: the shelf plateau |eps*q1_plus|", [],
                   id=f"eps_1e-308_{obs}") for obs in ("edges", "sigma0", "black_balance")),
    # The shelf edges' reach, |t0| + dt/2 + u_inf z_max = 16.06, passes 0.9 half_width = 13.5 even at t0 = 0.
    pytest.param(_console_cfg(None, z_max=16.0, epsilon=0.0, observables=["fidelity"]), ["compare"], 2,
                 "validation error: grid.half_width: shelf edges from t0 = 0.0 reach 16.06", [], id="reach_half_width"),
    # At t0 = 0 the reach (5.06) fits inside 13.5; the offset t0 = 9 alone carries it past.
    pytest.param(_console_cfg(None, z_max=5.0, epsilon=0.0, observables=["fidelity"],
                              soliton={"u_inf": 1.0, "delta_phi0": math.pi, "t0": 9.0}), ["compare"], 2,
                 "validation error: soliton.t0: shelf edges from t0 = 9.0 reach 14.06", [], id="reach_t0"),
    # With no grid, a reach the automatic grid cannot hold names soliton.t0 if the run fits from t0 = 0, as the
    # reach refusal does, else run.z_max: a reach past the floats, or 3.1e18 points for t0 = 1e17.
    *(pytest.param({k: v for k, v in _console_cfg(None, z_max=z_max, epsilon=0.0, observables=["fidelity"],
                                                  soliton={"u_inf": 1.0, "delta_phi0": math.pi, "t0": t0}).items()
                    if k != "grid"}, ["predict"], 2, f"validation error: {message}", [], id=f"reach_auto_grid_{tag}")
      for tag, t0, z_max, message in (
          ("t0_floats", 1e308, 1.0, "soliton.t0: no automatic grid holds the reach from t0 = 1e+308 "
                                    "(the reach is past the floats)"),
          ("t0_points", 1e17, 1.0, "soliton.t0: no automatic grid holds the reach from t0 = 1e+17 (grid.n_points: "),
          ("z_max_floats", 0.0, 1e308,
           "run.z_max: no automatic grid holds u_inf*z_max (the reach is past the floats)"))),
    pytest.param(_console_cfg({"label": "dispersive_damping", "gamma": 5e-324}, 2.5, (40.0, 512), 12.0,
                              observables=["edges"]), ["compare"], 2,
                 "validation error: perturbation.gamma: the shelf plateau |eps*q1_plus| = 0", [],
                 id="gamma_5e-324_edges"),
    # Strength 1e308: the plateau probe's q1 divisions overflow, which validate refuses as a plateau past the floats.
    *(pytest.param(_console_cfg({"label": label, key: 1e308}, 0.5), ["predict", "compare"], 2,
                   f"validation error: perturbation.{key}: the shelf plateau |eps*q1_plus| = inf is not a normal float",
                   [], id=f"{label}_1e308") for label, key in (("linear_damping", "Gamma"), ("two_photon", "gamma3"))),
]


class TestCli:
    @pytest.mark.parametrize("cfg, commands, code, err, files", CONSOLE_CASES)
    def test_console_case(self, cfg, commands, code, err, files, tmp_path, capsys, monkeypatch):
        if code == 2:
            def fail(*args, **kwargs):
                raise AssertionError("ran the cascade or the PDE for a config that should have been rejected")

            monkeypatch.setattr(asymptotics, "evolve_core_parameters", fail)
            monkeypatch.setattr(simulator, "run", fail)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in commands:
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), *command.split()]) == code
            assert err in capsys.readouterr().err
        for name in files:
            assert (tmp_path / name).stat().st_size > 0

    def test_seedless_rejected(self):
        # Unknown flags are argparse usage errors: exit code 2.
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", "grey_dispersive", "--seedless", "predict"])
        assert exc.value.code == 2

    def test_missing_config(self):
        assert cli.main(["predict"]) == 2

    def test_bad_preset(self, capsys):
        for command in ("predict", "compare"):
            assert cli.main(["--config", "no_such_preset", command]) == 2
            assert "validation error: config: no preset or file named 'no_such_preset'" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert cli.main(["--config", str(p), "predict"]) == 2

    @pytest.mark.parametrize("kind", ["not_utf8", "directory", "deep_array", "deep_object", "long_int"])
    def test_unreadable_config_file(self, kind, tmp_path, capsys):
        # The deep configs exceed the JSON decoder's recursion depth; the long int exceeds Python's digit limit.
        p = tmp_path / "cfg"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes({"not_utf8": b"\xff{}", "deep_array": b"[" * 100_000, "deep_object": b'{"a":' * 50_000,
                           "long_int": b'{"epsilon": ' + b"1" * 5000 + b"}"}[kind])
        assert cli.main(["--config", str(p), "predict"]) == 2
        assert "validation error: config:" in capsys.readouterr().err

    def test_predict_roundtrip(self, tmp_path):
        code = cli.main(["--config", "grey_dispersive", "--out-dir", str(tmp_path), "predict"])
        assert code == 0
        assert (tmp_path / "predict_prediction.csv").exists()

    def test_compare_failure_exit_code(self, tmp_path):
        # Coarse grid: measurement rows fail, exit code 1 (not a crash).
        cfg = {
            "perturbation": {"label": "dispersive_damping", "gamma": 1.0},
            "epsilon": 0.05,
            "soliton": {"u_inf": 1.0, "delta_phi0": math.pi},
            "grid": {"half_width": 40.0, "n_points": 256},
            "run": {"z_max": 10.0, "snapshot_dz": 0.5},
            "observables": ["shelf"],
        }
        p = tmp_path / "coarse.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 1

    @pytest.mark.parametrize("config, angle", [
        ("grey_dispersive", "7"), ("grey_dispersive", "0"), ("grey_dispersive", "nan"),
        ("black_unperturbed", "2.5"),
        # Angles sharing a tag (dphi2.5, dphi2.51327) would drop each other's rows.
        ("grey_dispersive", "2.5"), ("grey_dispersive", "2.0 2.0"), ("grey_dispersive", "2.5132741 2.5132742"),
        # Valid as given, but the run length and grid the sweep sets for it are not.
        ("grey_dispersive", "0.4"),
    ])
    def test_sweep_bad_angle_rejected_before_pool(self, config, angle, tmp_path, monkeypatch, capsys):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("started the sweep pool for a bad angle")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli.main(["--config", config, "--out-dir", str(tmp_path), "sweep",
                         "--delta-phi0", "2.5", *angle.split()]) == 2
        # Every case but the unperturbed base config is a fault of the angles.
        assert ("delta_phi0" in capsys.readouterr().err) == (config != "black_unperturbed")

    def test_sweep_single_angle(self, tmp_path):
        code = cli.main([
            "--config", "grey_dispersive", "--out-dir", str(tmp_path),
            "sweep", "--delta-phi0", str(4 * math.pi / 5),
        ])
        assert code == 0
        assert (tmp_path / "sweep_report.json").exists()

    def test_emit_layer_kind(self, tmp_path):
        cfg = harness.load_config("grey_dispersive")
        cfg["run"]["z_max"] = 12.0
        cfg["grid"] = {"half_width": 40.0, "n_points": 1024}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        code = cli.main(["--config", str(p), "--out-dir", str(tmp_path), "emit",
                         "--kinds", "layer", "profile"])
        assert code == 0
        assert (tmp_path / "emit_layer.csv").exists()
        assert (tmp_path / "emit_profile.csv").exists()

    def test_emit_never_grades(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("emit measured an observable")

        for name in ("measure_shelf", "measure_sigma0_rate", "track_edges", "measure_core_minimum"):
            monkeypatch.setattr(observe, name, fail)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(TestDeterminism()._tiny_cfg()), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "emit", "--kinds", "profile"]) == 0
        assert (tmp_path / "emit_profile.csv").exists()

    def test_emit_writes_snapshots(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(TestDeterminism()._tiny_cfg()), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path / "out"), "--run-id", "r",
                         "emit", "--kinds", "snapshots"]) == 0
        # z = 0 and four intervals of 0.5, the last ending at z_max
        assert {f.name for f in (tmp_path / "out").iterdir()} == {f"r_z{z}.csv" for z in (0, 0.5, 1, 1.5, 2)}

    def test_simulate_is_not_a_command(self, tmp_path):
        # emit --kinds snapshots writes what simulate wrote; argparse refuses the old name with exit 2.
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", "grey_dispersive", "--out-dir", str(tmp_path), "simulate"])
        assert exc.value.code == 2

    def test_emit_unknown_kind_rejected_before_run(self, tmp_path, no_simulation):
        assert cli.main(["--config", "grey_dispersive", "--out-dir", str(tmp_path), "emit",
                         "--kinds", "profile", "histogram"]) == 2

    def test_one_step_run(self, tmp_path):
        # z_max = 5e-324 needs one PDE step, though z_max / (dz_per_dt2 dt^2) underflows to 0.
        # u_inf = 0.3 keeps u_inf dt = 0.70 under MAX_UINF_DT at dt = 2.34.
        cfg = TestDeterminism()._tiny_cfg()
        cfg["grid"], cfg["run"] = {"half_width": 300.0, "n_points": 256}, {"z_max": 5e-324}
        cfg["soliton"]["u_inf"] = 0.3
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["predict"], ["emit", "--kinds", "snapshots"], ["emit", "--kinds", "profile"]):
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), *command]) == 0
        for name in ("predict_prediction.csv", "emit_z0.csv", "emit_profile.csv"):
            assert (tmp_path / name).stat().st_size > 0

    @pytest.mark.parametrize("soliton, grid, z_max", [
        ({"u_inf": 1.0}, {"half_width": 1e150, "n_points": 256}, 1e-300),  # dt = 7.8e147: no core sample
        ({"u_inf": 1e100, "delta_phi0": 2.5}, {"half_width": 15.0, "n_points": 256}, 1e-300),
        ({"u_inf": 1e60}, {"half_width": 15.0, "n_points": 256}, 4e-60),
        ({"u_inf": 1.0}, {"half_width": 166.4, "n_points": 256}, 40.0),  # u_inf dt = 1.3
    ], ids=["dt_7.8e147", "u_inf_1e100", "u_inf_1e60", "u_inf_dt_1.3"])
    def test_unstable_grid_refused(self, soliton, grid, z_max, tmp_path, no_simulation):
        cfg = TestDeterminism()._tiny_cfg()
        cfg["soliton"].update(soliton)
        cfg["grid"], cfg["run"] = grid, {"z_max": z_max}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["predict"], ["emit", "--kinds", "profile"]):
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), *command]) == 2

    def test_point_count_alone_refused_by_name(self, tmp_path, capsys, no_simulation):
        # u_inf = 1e100 with no grid: the automatic grid has 8e100 points, past the bound before any step.
        cfg = TestDeterminism()._tiny_cfg()
        cfg["soliton"] = {"u_inf": 1e100, "delta_phi0": 2.5}
        cfg["run"] = {"z_max": 1e-300}
        del cfg["grid"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == 2
        err = capsys.readouterr().err
        assert "grid.n_points: 8e+100 points exceed the bound 1e+10 point-steps" in err
        assert "inf steps" not in err

    def test_denormal_epsilon_refused_by_name(self, tmp_path, capsys, monkeypatch, no_simulation):
        # eps = 5e-324: 1/eps overflows, and the cascade's slow step eps z_max / steps underflows to 0, so
        # predict wrote a z column of zeros, compare overflowed and emit found no trajectory at z_max.
        def fail(*args, **kwargs):
            raise AssertionError("ran the cascade for a config that should have been rejected")

        monkeypatch.setattr(asymptotics, "evolve_core_parameters", fail)
        cfg = dict(TestDeterminism()._tiny_cfg(), epsilon=5e-324)
        cfg["soliton"]["delta_phi0"] = 4 * math.pi / 5
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["predict"], ["compare"], ["emit", "--kinds", "profile"]):
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), *command]) == 2
            assert "validation error: epsilon:" in capsys.readouterr().err

    @pytest.mark.parametrize("strength", [5e-324, 1e300])
    @pytest.mark.parametrize("label, key", [("dispersive_damping", "gamma"), ("linear_damping", "Gamma"),
                                            ("two_photon", "gamma3")])
    def test_unrepresentable_strength_never_exits_1(self, label, key, strength, tmp_path, capsys):
        # 5e-324: max |F| underflows to 0, so a relative phase-symmetry bound alone refuses rounding.
        # 1e300 at u_inf = 1057: F, or the density F u0_T* the cascade integrates, overflows.
        if strength < 1.0:
            cfg = dict(TestDeterminism()._tiny_cfg(), soliton={"u_inf": 1.0, "delta_phi0": 2.5})
        else:
            cfg = {"epsilon": 0.5, "soliton": {"u_inf": 1057.0, "delta_phi0": 2.5}, "run": {"z_max": 1e-6}}
        cfg["perturbation"] = {"label": label, key: strength}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        code = cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"])
        assert code in (0, 2, 3)
        if code == 2:
            assert f"validation error: perturbation.{key}:" in capsys.readouterr().err

    def test_tiny_epsilon_predict_never_exits_1(self, tmp_path, capsys):
        # eps = 1e-308: the cascade carries eps * delta_phi1, the flux integral per unit Z, and divides by eps
        # once; the default observables grade the shelf, whose plateau eps*q1 is subnormal there (refused),
        # while t0, which eps does not scale, is graded.
        cfg = dict(TestDeterminism()._tiny_cfg(), epsilon=1e-308, soliton={"u_inf": 1.0, "delta_phi0": 2.5})
        cfg["perturbation"] = {"label": "two_photon", "gamma3": 1.0}
        for observables, want in ((None, 2), (["t0"], 0)):
            cfg["observables"] = observables
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(cfg), encoding="utf-8")
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "predict"]) == want
        rows = np.genfromtxt(tmp_path / "predict_prediction.csv", delimiter=",", names=True)
        flux = rows["u_inf"][0] * (rows["phi1t_plus"][0] + rows["phi1t_minus"][0]) \
            - rows["A"][0] * (rows["phi1t_plus"][0] - rows["phi1t_minus"][0])
        assert rows["delta_phi1"][-1] == pytest.approx(flux * 2.0, rel=1e-9)  # Z reaches 2e-308: the state holds
        assert "perturbation.gamma3: the shelf plateau" in capsys.readouterr().err

    @pytest.mark.parametrize("label, key", [("dispersive_damping", "gamma"), ("linear_damping", "Gamma")])
    def test_zero_plateau_refused_by_name(self, label, key, tmp_path, capsys, no_simulation):
        # Strength 5e-324 at eps = 0.05: q1 is 0, and the shelf's measurement distance took log(1/0).
        cfg = dict(TestDeterminism()._tiny_cfg(), soliton={"u_inf": 1.0, "delta_phi0": 2.5})
        cfg["perturbation"] = {"label": label, key: 5e-324}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), "compare"]) == 2
        assert f"validation error: perturbation.{key}: the shelf plateau |eps*q1_plus| = 0" in capsys.readouterr().err

    def test_strong_background_runs_quietly(self, tmp_path):
        # u_inf = 200: the automatic grid takes dt <= 1/u_inf, and the phase-symmetry
        # probe sits at T/B, where cosh(B T) stays finite.
        cfg = TestDeterminism()._tiny_cfg()
        cfg["soliton"] = {"u_inf": 200.0, "delta_phi0": 2.5}
        cfg["run"] = {"z_max": 0.01}
        del cfg["grid"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["predict"], ["emit", "--kinds", "profile"]):
            assert cli.main(["--config", str(p), "--out-dir", str(tmp_path), *command]) == 0
        for name in ("predict_prediction.csv", "emit_profile.csv"):
            assert (tmp_path / name).stat().st_size > 0

    def test_validation_error_in_config_file(self, tmp_path):
        cfg = harness.load_config("grey_dispersive")
        cfg["epsilon"] = "not-a-number"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--config", str(p), "predict"]) == 2
