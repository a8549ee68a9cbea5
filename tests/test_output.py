"""CSV/JSON emission: 17-digit round-trips and atomic writes."""

import json

import numpy as np
import pytest

from memheat import ConfigError
from memheat.output import fmt17, write_csv, write_json, write_outputs


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(20240817)
    samples = np.concatenate(
        [
            rng.standard_normal(200),
            rng.standard_normal(200) * 1e300,
            rng.standard_normal(200) * 1e-300,
            np.array([0.0, 1.0, -1.0, np.pi, 2.0 / 3.0]),
        ]
    )
    for x in samples:
        assert float(fmt17(float(x))) == float(x)


def test_fmt17_scalar_kinds():
    assert fmt17(True) == "true"
    assert fmt17(False) == "false"
    assert fmt17(42) == "42"
    assert fmt17(float("nan")) == "nan"
    assert fmt17(0.1) == "0.10000000000000001"


def test_write_csv(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 1.0 / 3.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0
    # no leftover temp files from the atomic write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_write_json(tmp_path):
    path = tmp_path / "payload.json"
    write_json(path, {"b": 2, "a": [1.5, None, True]})
    text = path.read_text()
    assert json.loads(text) == {"a": [1.5, None, True], "b": 2}
    # keys are sorted for byte-stable output
    assert text.index('"a"') < text.index('"b"')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["payload.json"]


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "same.json"
    write_json(path, {"v": 1})
    write_json(path, {"v": 2})
    assert json.loads(path.read_text()) == {"v": 2}


def test_write_csv_accepts_strings(tmp_path):
    # string cells pass through unformatted
    p = tmp_path / "x.csv"
    write_csv(p, ["only"], [("literal",)])
    assert p.read_text() == "only\nliteral\n"


def test_failed_write_removes_what_this_call_wrote(tmp_path):
    # a name under a missing subdirectory fails after the first file is written
    files = {"first.json": {"a": 1}, "missing/second.json": {"b": 2}}
    out = tmp_path / "new"
    with pytest.raises(ConfigError, match="cannot write missing/second.json"):
        write_outputs(out, files)
    assert not out.exists()
    # a directory that was there before stays, with what it already held
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    with pytest.raises(ConfigError, match="cannot write missing/second.json"):
        write_outputs(out, files)
    assert [p.name for p in out.iterdir()] == ["earlier.txt"]
