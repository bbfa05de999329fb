"""Print what ``predict`` computes over a fixed grid of configs, one JSON line per config.

Each line holds the config id, the outcome ("ok", or the name of the exception ``harness.predict`` raised) and
the sha256 of every trajectory column: z, each CoreParams and ShelfParams field at the samples, and the
background u_inf at every table node.  The grid: ten forcing strengths across the three built-in forcings, times
delta_phi0 in {0.12, 0.6, 1.5, 2.5, pi}, eps in {0.02, 0.05, 0.1} and z_max in {10, 30, 50}.  A change to the
cascade that should leave its numbers alone runs this on the source tree before and after it and diffs the two
outputs:

    python tests/compare_predictions.py PARENT/src > before.jsonl
    python tests/compare_predictions.py src > after.jsonl
    diff before.jsonl after.jsonl
"""

import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

FORCINGS = [("dispersive_damping", "gamma", s) for s in (0.5, 1.0, 2.0)]
FORCINGS += [("linear_damping", "Gamma", s) for s in (0.2, 0.5, 1.13)]
FORCINGS += [("two_photon", "gamma3", s) for s in (0.5, 1.0, 2.0, 5.0)]


def main(src_dir: str) -> None:
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from darkshelf import harness
    from darkshelf.asymptotics import ShelfParams
    from darkshelf.soliton import CoreParams

    for label, name, strength in FORCINGS:
        for dphi in (0.12, 0.6, 1.5, 2.5, math.pi):
            for eps in (0.02, 0.05, 0.1):
                for z_max in (10.0, 30.0, 50.0):
                    case = f"{label}:{name}={strength:g},delta_phi0={dphi:.4g},eps={eps:g},z_max={z_max:g}"
                    cfg = {"perturbation": {"label": label, name: strength}, "epsilon": eps,
                           "soliton": {"u_inf": 1.0, "delta_phi0": dphi, "t0": 0.0, "sigma0": 0.0},
                           "run": {"z_max": z_max}}
                    try:
                        traj = harness.predict(harness.validate(cfg))
                    except Exception as exc:  # an escaped exception is an answer too
                        print(json.dumps({"case": case, "outcome": type(exc).__name__}))
                        continue
                    columns = {"z": traj.z, "background": traj.background.u_inf}
                    columns.update((f.name, traj.params.column(f.name)) for f in fields(CoreParams))
                    columns.update((f.name, traj.shelf.column(f.name)) for f in fields(ShelfParams))
                    digests = {k: hashlib.sha256(np.ascontiguousarray(v, dtype=float).tobytes()).hexdigest()
                               for k, v in columns.items()}
                    print(json.dumps({"case": case, "outcome": "ok", "sha256": digests}))


if __name__ == "__main__":
    main(sys.argv[1])
