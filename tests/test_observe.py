"""observe holds the measurement kernels; simulator re-exports four of them for bench/tracer.py's
simulator.measure span, which makes simulator -> observe -> simulator an import cycle."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import darkshelf
from darkshelf import observe, simulator


@pytest.mark.parametrize("name", ["measure_shelf", "measure_sigma0_rate", "track_edges", "measure_core_minimum"])
def test_simulator_reexports_the_kernel(name):
    assert getattr(simulator, name) is getattr(observe, name)


def test_every_module_imports_in_a_fresh_interpreter():
    env = dict(os.environ)
    src = str(Path(darkshelf.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for module in sorted(m.name for m in pkgutil.iter_modules(darkshelf.__path__)):
        proc = subprocess.run([sys.executable, "-c", f"import darkshelf.{module}"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, (module, proc.stderr)
