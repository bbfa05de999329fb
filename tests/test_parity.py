"""The comparison rule of tests/parity.py, on case directories written by hand: no darkshelf run."""

from pathlib import Path

import pytest

import parity

_CSV = "z,u_inf\n0,1.0\n0.5,0.75\n"
_ANSWER = "exit 2\nvalidation error: run.z_max: must be positive, got -1.0\n"


def _trees(tmp_path: Path, parent: dict[str, str], change: dict[str, str]) -> dict[str, tuple[str, float, str]]:
    for side, files in (("parent", parent), ("change", change)):
        for name, text in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return parity.compare(tmp_path / "parent", tmp_path / "change")


def test_identical_files_are_the_same(tmp_path):
    files = {"presets/compare%20a/compare_report.json": '{"rows": [{"name": "eps_q1_plus", "error": 0.1}]}',
             "presets/compare%20a/answer.txt": "exit 0\n", "refusals/predict%20a/answer.txt": _ANSWER}
    assert _trees(tmp_path, files, files) == {"presets/compare a": ("same", 0.0, ""),
                                              "refusals/predict a": ("same", 0.0, "")}


def test_a_number_moved_by_1e_13_is_moved_by_exactly_that(tmp_path):
    moved = 0.75 + 1e-13
    results = _trees(tmp_path, {"predictions/c/trajectory.csv": _CSV},
                     {"predictions/c/trajectory.csv": _CSV.replace("0.75", repr(moved))})
    assert results == {"predictions/c": ("moved", abs(moved - 0.75), "trajectory.csv")}
    assert results["predictions/c"][1] == pytest.approx(1e-13, rel=1e-3)


@pytest.mark.parametrize("answer", [_ANSWER.replace("must be positive", "must exceed zero"),
                                    _ANSWER.replace("exit 2", "exit 3")])
def test_a_changed_message_or_exit_code_is_changed(tmp_path, answer):
    results = _trees(tmp_path, {"refusals/r/answer.txt": _ANSWER}, {"refusals/r/answer.txt": answer})
    assert results["refusals/r"][0] == "changed"
    assert results["refusals/r"][2].startswith("answer.txt line ")


def test_a_changed_header_is_changed_though_it_holds_no_number(tmp_path):
    results = _trees(tmp_path, {"predictions/c/trajectory.csv": _CSV},
                     {"predictions/c/trajectory.csv": _CSV.replace("u_inf", "A")})
    assert results["predictions/c"][0] == "changed"


def test_a_file_or_case_on_one_side_only_is_changed(tmp_path):
    parent = {"presets/p/answer.txt": "exit 0\n", "presets/p/p_prediction.csv": _CSV}
    change = {"presets/p/answer.txt": "exit 0\n", "presets/new/answer.txt": "exit 0\n"}
    results = _trees(tmp_path, parent, change)
    assert results["presets/p"] == ("changed", 0.0, "only in parent: ['p_prediction.csv'], only in change: []")
    assert results["presets/new"][0] == "changed"
