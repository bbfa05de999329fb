"""Write tests/golden_rows.json: what each preset's compare grades and what its predict writes.

For each preset the file holds, per graded row, [predicted, measured, err/tol], and the last sample of
each column of the prediction CSV.  test_golden_rows.py holds every run to it within bounds.  A change
that moves a number on purpose reruns this script and lists each row's old and new err/tol:

    PYTHONPATH=src python tests/write_golden_rows.py
"""

import json
import tempfile
from pathlib import Path

from darkshelf import harness

GOLDEN = Path(__file__).with_name("golden_rows.json")


def preset_rows(report: harness.ComparisonReport, traj) -> dict:
    """{"rows": {name: [predicted, measured, err/tol]}, "predict": {column: last sample}} of one preset."""
    rows = {r.name: [r.predicted, r.measured, r.error / r.tolerance] for r in report.rows}
    with tempfile.TemporaryDirectory() as tmp:
        header, *_, last = Path(harness.write_prediction_csv(traj, tmp, "golden")).read_text().splitlines()
    return {"rows": rows, "predict": dict(zip(header.split(","), map(float, last.split(","))))}


def main() -> None:
    golden = {}
    for name in sorted(harness.PRESETS):
        report, art = harness.compare(harness.validate(harness.load_config(name)))
        golden[name] = preset_rows(report, art.traj)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
