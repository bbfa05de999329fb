"""Print how ``predict`` answers a fixed set of one-fault configs, one JSON line per case.

Each line holds the case id, the exit code and the stderr of ``cli.main([... "predict"])``, with the cascade and
``simulator.run`` stubbed, so only validation does work.  The cases: every preset with and without its grid, times
every CONFIG_FIELDS path and each forcing's strength, times the property test's bad values and a few large or
plain ones; then dispersive damping near the step's limit on automatic grids at several t0 and z_max.  A change
that moves where refusals are decided runs this on the source tree before and after it and diffs the two outputs:

    python tests/compare_refusals.py PARENT/src > before.jsonl
    python tests/compare_refusals.py src > after.jsonl
    diff before.jsonl after.jsonl
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path


def main(src_dir: str) -> None:
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from darkshelf import asymptotics, cli, simulator
    from test_harness import _BAD_VALUES, _BASES, _set, _table_paths

    def stub(*args, **kwargs):
        raise asymptotics.ShallowSolitonError("stubbed")

    asymptotics.evolve_core_parameters = simulator.run = stub
    cases = [(f"{name}:{path}={value!r}", name, {path: value})
             for name in sorted(_BASES) for path in _table_paths()
             for value in [*_BAD_VALUES, 1e17, 1e6, 7e306, 0.3]]
    cases += [(f"gamma={gamma:g},t0={t0:g},z_max={z_max:g}", "grey_dispersive/auto_grid",
               {"perturbation.gamma": gamma, "soliton.t0": t0, "run.z_max": z_max})
              # At 3.985 and z_max = 30 the step holds on t0 = 0's automatic grid but not on t0 = 3's, a finer one.
              for gamma in (3.9, 3.96, 3.985, 4.0, 4.5, 5.0)
              for t0 in (0.0, 3.0, 30.0, 300.0, 1e5) for z_max in (1.0, 10.0, 30.0)]
    with tempfile.TemporaryDirectory() as out:
        for case, base, changes in cases:
            cfg = json.loads(json.dumps(_BASES[base]))
            for path, value in changes.items():
                _set(cfg, path, value)
            (Path(out) / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(["--config", str(Path(out) / "cfg.json"), "--out-dir", out, "predict"])
                except Exception as exc:  # an escaped exception is an answer too
                    code = f"{type(exc).__name__}: {exc}"
            print(json.dumps({"case": case, "exit": code, "stderr": err.getvalue()}))


if __name__ == "__main__":
    main(sys.argv[1])
