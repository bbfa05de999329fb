"""Write tests/golden_rows.json: what each preset's compare grades and what its predict writes.

For each preset the file holds, per graded row, [predicted, measured, err/tol], and the last sample of
each column of the prediction CSV.  It also holds the last prediction sample of each THEORY config, the
cascade alone for each built-in forcing at the cascade_layers benchmark's eps and span.
test_golden_rows.py holds every run to it within bounds.  A change that moves a number on purpose reruns
this script and lists each row's old and new err/tol:

    PYTHONPATH=src python tests/write_golden_rows.py
"""

import json
import tempfile
from pathlib import Path

from darkshelf import harness

GOLDEN = Path(__file__).with_name("golden_rows.json")
THEORY = {f"predict_{pert['label']}": {"perturbation": pert, "epsilon": 0.05,
                                        "soliton": {"u_inf": 1.0, "delta_phi0": 2.0, "t0": 0.0, "sigma0": 0.0},
                                        "run": {"z_max": 30.0}}
          for pert in ({"label": "dispersive_damping", "gamma": 1.0}, {"label": "linear_damping", "Gamma": 0.5},
                       {"label": "two_photon", "gamma3": 1.0})}


def last_prediction(traj) -> dict:
    """{column: last sample} of the prediction CSV of ``traj``."""
    with tempfile.TemporaryDirectory() as tmp:
        header, *_, last = Path(harness.write_prediction_csv(traj, tmp, "golden")).read_text().splitlines()
    return dict(zip(header.split(","), map(float, last.split(","))))


def preset_rows(report: harness.ComparisonReport, traj) -> dict:
    """{"rows": {name: [predicted, measured, err/tol]}, "predict": {column: last sample}} of one preset."""
    rows = {r.name: [r.predicted, r.measured, r.error / r.tolerance] for r in report.rows}
    return {"rows": rows, "predict": last_prediction(traj)}


def main() -> None:
    golden = {}
    for name in sorted(harness.PRESETS):
        report, art = harness.compare(harness.validate(harness.load_config(name)))
        golden[name] = preset_rows(report, art.traj)
    for name, cfg in THEORY.items():
        golden[name] = {"predict": last_prediction(harness.predict(harness.validate(cfg)))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
