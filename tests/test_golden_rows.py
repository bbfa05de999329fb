"""The numbers stay as they are: every preset's graded rows and prediction against tests/golden_rows.json.

Bounds, not bytes: with numpy's AVX2 and AVX-512 paths turned off, measured rows moved by up to 6.5e-14
relative and err/tol by at most 3.9e-9, while the cascade's predictions moved under 1e-15 relative.  A
deliberate move of a protocol constant (window_end 0.7 -> 0.71) moves a shelf row's err/tol by 0.018.
tests/write_golden_rows.py rewrites the file.  grey_linear_damping is recorded as it is, failing
eps_q1_plus at err/tol 1.03.
"""

import json

import pytest

from darkshelf import harness
from write_golden_rows import GOLDEN, preset_rows

ERR_TOL_BOUND = 1e-6  # |delta err/tol| per row: 250x the largest move measured without numpy's SIMD paths
PREDICTION_RTOL = 1e-12
PREDICTION_ATOL = 1e-13  # for values that are zero up to rounding, such as delta_phi1 (-6.6e-16) under linear damping


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(harness.PRESETS))
def test_preset_matches_golden_rows(name, golden, preset_compare):
    report, art, _ = preset_compare(name)
    got, want = preset_rows(report, art.traj), golden[name]
    assert sorted(got["rows"]) == sorted(want["rows"])
    for row, (predicted, _, err_tol) in want["rows"].items():
        now_predicted, _, now_err_tol = got["rows"][row]
        assert now_predicted == pytest.approx(predicted, rel=PREDICTION_RTOL, abs=PREDICTION_ATOL), row
        assert abs(now_err_tol - err_tol) <= ERR_TOL_BOUND, (row, now_err_tol, err_tol)  # a nan fails
    assert sorted(got["predict"]) == sorted(want["predict"])
    for column, value in want["predict"].items():
        assert got["predict"][column] == pytest.approx(value, rel=PREDICTION_RTOL, abs=PREDICTION_ATOL), column
