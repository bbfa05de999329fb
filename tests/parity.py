"""Compare what two source trees of darkshelf compute, case by case: the check that the numbers stay as they are.

    python tests/parity.py PARENT_SRC CHANGE_SRC

PARENT_SRC is the src directory of a checkout of the parent commit (``git worktree add ../parent HEAD~1`` makes
one), CHANGE_SRC the change's own.  Each tree runs in a child process of its own: PYTHONPATH holds that tree's src
and this directory, PYTHONHASHSEED differs between the two, and the working directory is a new temporary one.  The
children write every output to ``<set>/<case>/`` under the same relative paths, so no printed path can differ.
The case lists come from this directory, applied to each tree's presets and config table:

- refusals: every preset with and without its grid, times every CONFIG_FIELDS path and each forcing's strength,
  times the bad values of ``test_harness`` and a few large or plain ones; then dispersive damping near the step's
  limit on automatic grids.  Each is answered by ``predict`` and by ``compare``, with the cascade and
  ``simulator.run`` stubbed so that only validation does work;
- predictions: ``harness.predict`` over ten forcing strengths across the three forcings, times delta_phi0, eps and
  z_max: its outcome, every trajectory column, and u_inf at every background-table node;
- presets: each preset's ``predict`` CSV, its ``compare`` report and CSVs with every plot kind, and the one-angle
  sweep of ``test_reach``.

Each CLI run leaves ``answer.txt``, its exit code and stderr, next to the files it wrote.  A case whose files have
equal bytes is the same.  A case whose CSV and JSON files differ only in their numbers moved, by its largest
|a - b| / max(1, |a|), a being the parent's number.  Anything else changed: an exit code, a message, a header or the
set of files.  The script prints one summary line, then one line per case that differs, and exits 1 if any case
moved or changed or a child failed.
"""

import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from unittest import mock
from urllib.parse import quote, unquote

import numpy as np

TESTS = Path(__file__).resolve().parent
FORCINGS = [("dispersive_damping", "gamma", s) for s in (0.5, 1.0, 2.0)]
FORCINGS += [("linear_damping", "Gamma", s) for s in (0.2, 0.5, 1.13)]
FORCINGS += [("two_photon", "gamma3", s) for s in (0.5, 1.0, 2.0, 5.0)]
# A number not part of a name: "q1" in "eps_q1_plus" is text.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


# -- Child: one tree's outputs ------------------------------------------------


def _case(set_name: str, case: str) -> str:
    path = os.path.join(set_name, quote(case, safe=""))
    os.makedirs(path, exist_ok=True)
    return path


def _answer(case: str, config, *args: str) -> None:
    """Run the CLI in process on ``config`` (a preset name or a dict), writing into the case directory."""
    from darkshelf import cli

    if isinstance(config, dict):
        Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
        config = "cfg.json"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--config", config, "--out-dir", case, *args])
        except Exception as exc:  # an escaped exception is an answer too
            code = f"{type(exc).__name__}: {exc}"
    Path(case, "answer.txt").write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")


def _write_columns(path: str, header: list[str], columns) -> None:
    rows = np.column_stack(columns).tolist()
    Path(path).write_text("\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows)]) + "\n")


def _refusals() -> None:
    from darkshelf import asymptotics, simulator
    from test_harness import _BAD_VALUES, _BASES, _set, _table_paths

    def stub(*args, **kwargs):
        raise asymptotics.ShallowSolitonError("stubbed")

    cases = [(f"{name}:{path}={value!r}", name, {path: value})
             for name in sorted(_BASES) for path in _table_paths()
             for value in [*_BAD_VALUES, 1e17, 1e6, 7e306, 0.3]]
    cases += [(f"gamma={gamma:g},t0={t0:g},z_max={z_max:g}", "grey_dispersive/auto_grid",
               {"perturbation.gamma": gamma, "soliton.t0": t0, "run.z_max": z_max})
              # At 3.985 and z_max = 30 the step holds on t0 = 0's automatic grid but not on t0 = 3's, a finer one.
              for gamma in (3.9, 3.96, 3.985, 4.0, 4.5, 5.0)
              for t0 in (0.0, 3.0, 30.0, 300.0, 1e5) for z_max in (1.0, 10.0, 30.0)]
    with mock.patch.object(asymptotics, "evolve_core_parameters", stub), mock.patch.object(simulator, "run", stub):
        for case, base, changes in cases:
            cfg = json.loads(json.dumps(_BASES[base]))
            for path, value in changes.items():
                _set(cfg, path, value)
            for command in ("predict", "compare"):
                _answer(_case("refusals", f"{command} {case}"), cfg, command)


def _predictions() -> None:
    from dataclasses import fields

    from darkshelf import harness
    from darkshelf.asymptotics import ShelfParams
    from darkshelf.soliton import CoreParams

    core, shelf = [f.name for f in fields(CoreParams)], [f.name for f in fields(ShelfParams)]
    for (label, name, strength), dphi, eps, z_max in itertools.product(
            FORCINGS, (0.12, 0.6, 1.5, 2.5, math.pi), (0.02, 0.05, 0.1), (10.0, 30.0, 50.0)):
        case = _case("predictions", f"{label}:{name}={strength:g},delta_phi0={dphi:.4g},eps={eps:g},z_max={z_max:g}")
        cfg = {"perturbation": {"label": label, name: strength}, "epsilon": eps,
               "soliton": {"u_inf": 1.0, "delta_phi0": dphi, "t0": 0.0, "sigma0": 0.0}, "run": {"z_max": z_max}}
        try:
            traj = harness.predict(harness.validate(cfg))
        except Exception as exc:  # an escaped exception is an answer too
            Path(case, "outcome.txt").write_text(type(exc).__name__)
            continue
        Path(case, "outcome.txt").write_text("ok")
        _write_columns(os.path.join(case, "trajectory.csv"), ["z", *core, *shelf],
                       [traj.z, *map(traj.params.column, core), *map(traj.shelf.column, shelf)])
        _write_columns(os.path.join(case, "background.csv"), ["Z", "u_inf"],
                       [traj.background.Z, traj.background.u_inf])


def _presets() -> None:
    from darkshelf import harness
    from test_reach import _configs

    for name in sorted(harness.PRESETS):
        _answer(_case("presets", f"predict {name}"), name, "predict")
        _answer(_case("presets", f"compare {name}"), {**harness.PRESETS[name], "outputs": list(harness.PLOT_KINDS)},
                "compare")
    _answer(_case("presets", "sweep"), _configs()["sweep"], "sweep", "--delta-phi0", "3.14159")


def child() -> None:
    """Write every set under the working directory; a set that raises is reported and the others still run."""
    failed = False
    for run in (_predictions, _presets, _refusals):
        try:
            run()
        except Exception:
            traceback.print_exc()
            failed = True
    sys.exit(failed)


# -- Comparison ---------------------------------------------------------------


def _move(x: bytes, y: bytes) -> float | None:
    """The largest |a - b| / max(1, |a|) between two texts that differ only in their numbers, else None."""
    s, t = x.decode(errors="surrogateescape"), y.decode(errors="surrogateescape")
    if _NUMBER.sub("#", s) != _NUMBER.sub("#", t):
        return None
    a, b = (np.array(_NUMBER.findall(text), dtype=float) for text in (s, t))
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)), initial=0.0))


def _first_difference(x: bytes, y: bytes) -> str:
    lines = itertools.zip_longest(x.decode(errors="replace").splitlines(), y.decode(errors="replace").splitlines())
    for number, (p, q) in enumerate(lines, 1):
        if p != q:
            return f"line {number}: {(p or '')[:100]!r} -> {(q or '')[:100]!r}"
    return "line endings"


def compare(parent: Path, change: Path) -> dict[str, tuple[str, float, str]]:
    """{case: (verdict, largest move, detail)} for every case directory <set>/<case> on either side; the verdict
    is "same", "moved" or "changed"."""
    def files(case: Path) -> dict[str, bytes]:
        return {p.relative_to(case).as_posix(): p.read_bytes() for p in sorted(case.rglob("*")) if p.is_file()}

    cases = {p.relative_to(root) for root in (parent, change) for p in root.glob("*/*") if p.is_dir()}
    results = {}
    for case in sorted(cases):
        a, b = files(parent / case), files(change / case)
        key = unquote(case.as_posix())
        if a.keys() != b.keys():
            results[key] = "changed", 0.0, (f"only in parent: {sorted(a.keys() - b.keys())}, "
                                            f"only in change: {sorted(b.keys() - a.keys())}")
            continue
        results[key] = "same", 0.0, ""
        for name in a:
            if a[name] == b[name]:
                continue
            move = _move(a[name], b[name]) if name.endswith((".csv", ".json")) else None
            if move is None:
                results[key] = "changed", 0.0, f"{name} {_first_difference(a[name], b[name])}"
                break
            if move >= results[key][1]:
                results[key] = "moved", move, name
    return results


def main(parent_src: str, change_src: str) -> int:
    for src in (parent_src, change_src):
        if not Path(src, "darkshelf", "__init__.py").is_file():
            sys.exit(f"parity: {src!r} holds no darkshelf package")
    start = time.time()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp, side) for side in ("parent", "change")]
        children = []
        for seed, (root, src) in enumerate(zip(roots, (parent_src, change_src)), 1):
            root.mkdir()
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(src).resolve()), str(TESTS)]),
                   "PYTHONHASHSEED": str(seed)}
            children.append(subprocess.Popen([sys.executable, "-c", "import parity; parity.child()"], cwd=root,
                                             env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
        for root, child in zip(roots, children):
            output = child.communicate()[0]
            if child.returncode:
                print(f"parity: the {root.name} tree's child exited {child.returncode}:\n{output}")
                failed = True
        results = compare(*roots)
    moved = {case: r for case, r in results.items() if r[0] == "moved"}
    changed = {case: r for case, r in results.items() if r[0] == "changed"}
    summary = f"parity: {len(results)} cases in {time.time() - start:.1f} s: "
    summary += f"{len(results) - len(moved) - len(changed)} same, {len(moved)} moved"
    if moved:
        case, (_, largest, _) = max(moved.items(), key=lambda item: item[1][1])
        summary += f" (largest {largest:.3g} in {case})"
    print(f"{summary}, {len(changed)} changed")
    for case, (verdict, largest, detail) in results.items():
        if verdict != "same":
            print(f"{verdict} {f'{largest:.3g} ' if verdict == 'moved' else ''}{case}: {detail}")
    return int(failed or bool(moved) or bool(changed))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
