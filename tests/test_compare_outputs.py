"""`tools/compare_outputs.py` on small synthetic output trees: the largest
differences per file, the count of differing fields, and the files that do
not line up."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from compare_outputs import compare_trees, difference, main  # noqa: E402


def tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = {"run/a.csv": "t,w\n0,1.5\n", "run/b.json": '{"x": 1}\n', "run/notes.txt": "x"}
    old, new = tree(tmp_path / "old", files), tree(tmp_path / "new", files)
    assert main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["run/a.csv  identical", "run/b.json  identical"]  # no .txt


def test_csv_reports_its_largest_differences(tmp_path):
    old = tree(tmp_path / "old", {"a.csv": "t,w\n0,1.0\n1,-2.0\n2,nan\n"})
    new = tree(tmp_path / "new", {"a.csv": "t,v\n0,1.5\n1,-2.0000001\n2,nan\n"})
    report = compare_trees(old, new)["a.csv"]
    assert report["identical"] is False
    assert report["max_abs"] == pytest.approx(0.5)
    assert report["max_rel"] == pytest.approx(0.5 / 1.5)
    assert report["differing"] == 3  # the header cell, 1.0 -> 1.5, -2.0 -> -2.0000001


def test_json_compares_leaf_by_leaf(tmp_path):
    old = {"gap": 1e-16, "modes": [{"n": 1, "d": 0.25}], "tag": "memory", "none": None}
    new = {"gap": 3e-16, "modes": [{"n": 1, "d": 0.25}], "tag": "memoryless", "none": None}
    old_root = tree(tmp_path / "old", {"s.json": json.dumps(old)})
    new_root = tree(tmp_path / "new", {"s.json": json.dumps(new)})
    report = compare_trees(old_root, new_root)["s.json"]
    assert report["max_abs"] == pytest.approx(2e-16)
    assert report["max_rel"] == pytest.approx(2.0 / 3.0)
    assert report["differing"] == 2  # gap and tag; the string adds no difference


def test_unmatched_files_and_shapes_are_named(tmp_path, capsys):
    old = tree(tmp_path / "old", {"a.csv": "t\n0\n", "gone.json": "{}"})
    new = tree(tmp_path / "new", {"a.csv": "t\n0\n1\n", "added.json": "{}"})
    reports = compare_trees(old, new)
    assert reports["gone.json"] == {"only_in": "old"}
    assert reports["added.json"] == {"only_in": "new"}
    assert "mismatch" in reports["a.csv"]
    assert main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "added.json  only in NEW" in out and "a.csv  shapes differ" in out


@pytest.mark.parametrize(
    "a, b, want",
    [
        (1.0, 1.0, (0.0, 0.0)),
        (math.nan, math.nan, (0.0, 0.0)),
        (math.inf, math.inf, (0.0, 0.0)),
        (0.0, -0.0, (0.0, 0.0)),
        (math.inf, 1.0, (math.inf, math.inf)),
        (math.nan, 1.0, (math.inf, math.inf)),
        (-1.0, 1.0, (2.0, 2.0)),
    ],
)
def test_difference_of_special_values(a, b, want):
    assert difference(a, b) == want
