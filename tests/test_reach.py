"""Every function, method and property in src/darkshelf is entered by a run of the CLI.

The check runs in a child process (this file as a script) so that calls made
while the package is imported, such as the finite-difference weights and the
Airy anchor table, count.  The child installs a profile hook, imports
darkshelf and runs ``cli.main`` on tiny configs covering each core kind,
forcing and command family; it then lists every definition in the package
that was never entered.  Code that only tests reach belongs under tests/;
the few definitions kept in src/ for other readers are named in ALLOWED.
"""

import concurrent.futures
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

# Definitions no run enters, kept in src/ on purpose.
ALLOWED = {
    "asymptotics.evolve_background":
        "RK4 reference integrator of the background ODE, which the tests check against the closed forms; "
        "bench/ wraps it in a span",
    "asymptotics.phase_conservation_check": "phase-conservation residual that bench/ grades in cascade_layers",
    "boundary_layer.shelf_phase_profile": "the layer's phase profile, which bench/ evaluates in cascade_layers",
    "airy.airy_ai": "Ai, the tests' check on the Airy table; bench/ wraps it in a span",
    "airy.airy_ai_prime": "Ai'; bench/ wraps it in a span",
    "airy.airy_ai_double_integral": "the phase profile's double integral of Ai; bench/ wraps it in a span",
    "simulator.conservation_residuals":
        "conservation-law balance of a run's snapshots, kept for the run diagnostics of ROADMAP item 4",
}

_TINY_GRID = {"half_width": 15.0, "n_points": 256}
_BLACK = {"u_inf": 1.0, "delta_phi0": 3.141592653589793}
_GREY = {"u_inf": 1.0, "delta_phi0": 2.5132741228718345}
_ALL_KINDS = ["profile", "contour", "trajectory", "layer", "snapshots"]


def _configs() -> dict[str, dict]:
    dispersive = {"label": "dispersive_damping", "gamma": 1.0}
    return {
        "black": {"perturbation": dispersive, "epsilon": 0.05, "soliton": _BLACK, "grid": _TINY_GRID,
                  "run": {"z_max": 1.0}, "outputs": _ALL_KINDS},
        # The late fits take the snapshots from z = 10 on: with z_max = 11 the edge tracker scans them.
        "grey": {"perturbation": dispersive, "epsilon": 0.05, "soliton": _GREY,
                 "grid": {"half_width": 35.0, "n_points": 256}, "run": {"z_max": 11.0},
                 "observables": ["shelf", "black_balance", "sigma0", "edges", "t0", "a_constancy", "layer"]},
        "black_unperturbed": {"perturbation": None, "epsilon": 0.0, "soliton": _BLACK, "grid": _TINY_GRID,
                              "run": {"z_max": 1.0}, "observables": ["fidelity", "t0"], "outputs": _ALL_KINDS},
        "grey_unperturbed": {"perturbation": None, "epsilon": 0.0, "soliton": _GREY, "grid": _TINY_GRID,
                             "run": {"z_max": 1.0}, "observables": ["fidelity"]},
        # No grid: auto_grid sizes it.
        "linear": {"perturbation": {"label": "linear_damping", "Gamma": 0.5}, "epsilon": 0.05, "soliton": _GREY,
                   "run": {"z_max": 1.0}},
        "two_photon": {"perturbation": {"label": "two_photon", "gamma3": 1.0}, "epsilon": 0.05, "soliton": _GREY,
                       "grid": _TINY_GRID, "run": {"z_max": 1.0}},
        # The cheapest sweep found: one angle, 20 units of z on 1024 points.
        "sweep": {"perturbation": {"label": "dispersive_damping", "gamma": 2.0}, "epsilon": 0.05,
                  "soliton": {"u_inf": 0.7, "delta_phi0": 3.14159}, "run": {"z_max": 1.0}},
    }


def _commands(out: Path) -> list[list[str]]:
    paths = {}
    for name, cfg in _configs().items():
        paths[name] = str(out / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    common = ["--out-dir", str(out)]
    return [
        ["--config", paths["black"], *common, "predict"],
        ["--config", paths["black"], *common, "compare"],
        ["--config", paths["grey"], *common, "compare"],
        ["--config", paths["black_unperturbed"], *common, "compare"],
        ["--config", paths["grey_unperturbed"], *common, "compare"],
        ["--config", paths["linear"], *common, "--run-id", "linear", "predict"],
        ["--config", paths["two_photon"], *common, "--run-id", "two_photon", "emit", "--kinds", "snapshots"],
        ["--config", paths["sweep"], *common, "sweep", "--delta-phi0", "3.14159"],
    ]


def _definitions(modules) -> dict[str, object]:
    """{module.qualname: code} of every function, method, property and cached property written in the
    package's source files (dataclass-generated methods are compiled from strings and left out)."""
    defs = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]

        def add(fn):
            if fn.__code__.co_filename == mod.__file__:
                defs[f"{short}.{fn.__qualname__}"] = fn.__code__

        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                add(obj)
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        add(member.__func__)
                    elif isinstance(member, property):
                        for accessor in (member.fget, member.fset, member.fdel):
                            if accessor is not None:
                                add(accessor)
                    elif isinstance(member, functools.cached_property):
                        add(member.func)
                    elif inspect.isfunction(member):
                        add(member)
    return defs


def _child(out: Path) -> None:
    """Profile the CLI runs and write their exit codes and the findings to reach.json."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    from darkshelf import cli

    # The sweep's workers run as threads of this process, where the hook sees them.
    concurrent.futures.ProcessPoolExecutor = concurrent.futures.ThreadPoolExecutor
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in _commands(out):
            codes.append(cli.main(argv))
    sys.setprofile(None)
    threading.setprofile(None)

    package = importlib.import_module("darkshelf")
    modules = [importlib.import_module(f"darkshelf.{m.name}") for m in pkgutil.iter_modules(package.__path__)]
    defs = _definitions([package, *modules])
    result = {
        "codes": codes,
        "unentered": sorted(name for name, code in defs.items() if code not in entered and name not in ALLOWED),
        "allowed_entered": sorted(name for name in ALLOWED if name in defs and defs[name] in entered),
        "missing": sorted(name for name in ALLOWED if name not in defs),
    }
    (out / "reach.json").write_text(json.dumps(result))


def test_every_definition_is_entered_by_a_run(tmp_path):
    import darkshelf  # here, not at the top: the child imports this file before it installs the hook

    env = dict(os.environ)
    src = str(Path(darkshelf.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "reach.json").read_text())
    assert all(code in (0, 1) for code in result["codes"]), result["codes"]
    assert not result["unentered"], f"no run enters {result['unentered']}: move them to tests/ or delete them"
    assert not result["missing"], f"ALLOWED names {result['missing']}, which src/ no longer defines"
    assert not result["allowed_entered"], f"ALLOWED names {result['allowed_entered']}, which a run now enters"


if __name__ == "__main__":
    _child(Path(sys.argv[1]))
