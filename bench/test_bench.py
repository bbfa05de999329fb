"""Quick self-test of the benchmark code on tiny grids (a few seconds).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from darkshelf import finitediff, simulator  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY_GRID = {"half_width": 15.0, "n_points": 256}
TINY_RUN = {"z_max": 1.0, "snapshot_dz": 0.1}


def tiny(name: str, work_dir: str):
    if name == "cascade_layers":
        return workloads.CascadeWorkload(7, work_dir, z_max=2.0, profile_points=33)
    w = workloads.make(name, 7, work_dir)
    preset = json.loads(Path(w.config_path).read_text())
    preset.update(grid=TINY_GRID, run=TINY_RUN)
    Path(w.config_path).write_text(json.dumps(preset))
    return w


def test_self_time_subtracts_nested_spans():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: [inner(), inner()])
    outer()  # outer reads 0 .. 5, the inner spans 1..2 and 3..4
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.total["outer"] == 5.0 and t.own["outer"] == 3.0
    assert t.total["inner"] == 2.0 and t.own["inner"] == 2.0


def test_installed_patches_from_imports_and_restores():
    original = finitediff.second_derivative
    resolve = simulator.SimConfig.resolve
    with tracer.installed(tracer.Tracer()):
        assert simulator.second_derivative is not original
        assert finitediff.second_derivative is simulator.second_derivative
    assert simulator.second_derivative is original and finitediff.second_derivative is original
    assert simulator.SimConfig.resolve is resolve


def test_seed_changes_inputs_not_work(tmp_path):
    a = workloads.make("grey_compare", 1, str(tmp_path))
    cfg_a = json.loads(Path(a.config_path).read_text())
    b = workloads.make("grey_compare", 2, str(tmp_path))
    cfg_b = json.loads(Path(b.config_path).read_text())
    assert cfg_a["soliton"] != cfg_b["soliton"]
    assert cfg_a["grid"] == cfg_b["grid"] and cfg_a["run"] == cfg_b["run"]
    assert abs(cfg_a["soliton"]["t0"]) <= 0.5 * 200.0 / 2048
    assert workloads.make("grey_compare", 1, str(tmp_path)).inputs == a.inputs


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run.measure(tiny(name, str(tmp_path)), 0.0, False, tmp_path)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    w = tiny(name, str(tmp_path))
    res = run.run_iterations(w, 0.0, True, tmp_path)
    assert len(res["times"]) == 1 and len(res["traced_times"]) == 1
    metrics, checks = run.layer_result(w, res)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[k][1] == units[k] for k in metrics)
    assert all(c.ok for c in checks if c.name.endswith((".is_zero", ".is_nonzero")))
    assert [c for c in res["checks"] if c.name == "repeat_digest" and not c.ok] == []
    if name != "cascade_layers":
        steps = metrics["simulator.steps"][0]
        assert metrics["simulator.point_steps"][0] == steps * TINY_GRID["n_points"]
        assert metrics["finitediff.d2_calls"][0] == 4 * steps  # one stencil per RK4 stage


def test_exits_nonzero_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grey_compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
