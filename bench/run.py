"""darkshelf benchmark: one workload per invocation.

    python3 bench/run.py --workload grey_compare --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; darkshelf is imported from its ``src/``.
The workload repeats while a typical iteration still ends within
``--seconds`` (at least twice, so that every run checks that a second
iteration reproduces the first byte for byte).  With
``--trace 0`` the iterations are untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced iterations alternate, the
per-layer metrics come from the traced ones, and the difference between the
two medians is reported as the tracing overhead.  The last line of standard
output is one JSON object: {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit if it holds no darkshelf."""
    if not (SRC / "darkshelf" / "__init__.py").is_file():
        sys.exit(f"error: no darkshelf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import darkshelf

    if Path(darkshelf.__file__).resolve().parent != SRC / "darkshelf":
        sys.exit(f"error: darkshelf imported from {darkshelf.__file__}, not {SRC}")


def measure_setup(config_path: str) -> float:
    """Median seconds from spawning a fresh interpreter to a validated Experiment."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), config_path],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_iterations(workload, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Repeat ``workload`` within ``seconds`` (two iterations at least).

    Returns untraced and traced iteration times, per-layer metrics of each
    traced iteration, every check made, and the worst graded check.
    """
    import tracer
    from workloads import Check

    times, traced_times, layers, checks = [], [], [], []
    worst = ("", 0.0)
    rows_graded = 0
    reference = None
    start = time.perf_counter()
    k = 0
    # Start another iteration only if a typical one still ends within the window.
    while k < 2 or (time.perf_counter() - start
                    + statistics.median(times + traced_times) <= seconds):
        t = tracer.Tracer() if trace and k % 2 else None
        out_dir = work_dir / f"iter{k}"
        with tracer.installed(t):
            began, cpu_began = time.perf_counter(), time.process_time()
            raw = workload.iterate(str(out_dir))
            elapsed = time.perf_counter() - began
            cpu = time.process_time() - cpu_began
        outcome = workload.check(raw)
        shutil.rmtree(out_dir, ignore_errors=True)
        if reference is None:
            reference = outcome.digest
        checks += outcome.checks + [Check("repeat_digest", outcome.digest == reference)]
        rows_graded = sum(1 for c in outcome.checks if c.err_over_tol is not None)
        for c in outcome.checks:
            if c.err_over_tol is not None and c.err_over_tol >= worst[1]:
                worst = (c.name, c.err_over_tol)
        if t is None:
            times.append(elapsed)
        else:
            traced_times.append(elapsed)
            layers.append(tracer.layer_metrics(t))
        print(f"iteration {k}: {'traced' if t else 'untraced'} {elapsed:.4f} s (cpu {cpu:.4f} s), "
              f"digest {outcome.digest[:16]}", flush=True)
        k += 1
    return {"times": times, "traced_times": traced_times, "layers": layers,
            "checks": checks, "worst": worst, "rows_graded": rows_graded}


def layer_result(workload, res: dict) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced iterations) plus the count checks:
    counts repeat exactly between iterations, and the workload's bypassed
    layers count zero while its exercised ones do not."""
    from workloads import Check

    layers = res["layers"]
    metrics, checks = {}, []
    for name, (_, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        metrics[name] = (statistics.median(values), unit)
        if unit in ("count", "B"):
            checks.append(Check(f"{name}.repeats", len(set(values)) == 1))
    for name in workload.zero_counts:
        checks.append(Check(f"{name}.is_zero", metrics[name][0] == 0))
    for name in workload.nonzero_counts:
        checks.append(Check(f"{name}.is_nonzero", metrics[name][0] > 0))
    metrics["harness.rows_graded"] = (res["rows_graded"], "count")
    metrics["harness.worst_err_over_tol"] = (res["worst"][1], "ratio")
    overhead = statistics.median(res["traced_times"]) - statistics.median(res["times"])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, checks


def measure(workload, seconds: float, trace: bool, work_dir: Path) -> dict:
    """One run of ``workload``: the result object printed as the last line."""
    metrics = {}
    if not trace:
        metrics["setup_s"] = (measure_setup(workload.config_path), "s")
    res = run_iterations(workload, seconds, trace, work_dir)
    checks = res["checks"]
    if trace:
        layer_metrics, count_checks = layer_result(workload, res)
        metrics.update(layer_metrics)
        checks += count_checks
    failed = [c.name for c in checks if not c.ok]
    if not trace:
        metrics["run_s"] = (statistics.median(res["times"]), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        metrics["rows_passed_frac"] = (1.0 - len(failed) / len(checks), "ratio")
    print(f"worst err/tol: {res['worst'][0]} {res['worst'][1]:.6g}")
    print(f"rows_failed_frac: {len(failed)}/{len(checks)}"
          + (f" failed: {', '.join(sorted(set(failed)))}" if failed else ""))
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    import_program()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, str(work_dir))
        print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(workload.inputs)}")
        result = measure(workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
