"""CSV/JSON emission: 17-digit round-trips and atomic writes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat import ConfigError
from memheat.config import MAX_STEPS
from memheat.output import CSV_BLOCK, write_csv, write_json, write_outputs


def _per_value(v) -> str:
    """The per-value rule the CSV bytes are defined by."""
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def _expected(header, columns) -> str:
    lines = [",".join(header)] + [",".join(map(_per_value, row)) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def _write_both_kinds(directory, header, columns):
    """The text write_csv writes for a 2-D float array and for row tuples."""
    payloads = {
        "array": np.column_stack([np.asarray(c, dtype=float) for c in columns]),
        "rows": list(zip(*columns)),
    }
    out = {}
    for kind, rows in payloads.items():
        path = directory / f"{kind}.csv"
        write_csv(path, header, rows)
        out[kind] = path.read_text()
    return out


def test_write_csv_round_trips_doubles(tmp_path):
    rng = np.random.default_rng(20240817)
    samples = np.concatenate(
        [
            rng.standard_normal(200),
            rng.standard_normal(200) * 1e300,
            rng.standard_normal(200) * 1e-300,
            np.array([0.0, 1.0, -1.0, np.pi, 2.0 / 3.0]),
        ]
    )
    path = tmp_path / "samples.csv"
    write_csv(path, ["x"], samples[:, None])
    lines = path.read_text().splitlines()
    assert lines[0] == "x"
    assert [float(x) for x in lines[1:]] == samples.tolist()


def test_write_csv_scalar_kinds(tmp_path):
    path = tmp_path / "kinds.csv"
    write_csv(path, ["i", "a", "b"], [(42, float("nan"), 0.1)])
    assert path.read_text() == "i,a,b\n42,nan,0.10000000000000001\n"
    # a column of Python ints keeps every digit, past 2^53 too: a `moment`
    # mode index at a large scope has no exact double
    write_csv(path, ["n", "x"], [(10**150 + 1, 0.5), (10**150 + 2, -0.0)])
    assert path.read_text() == f"n,x\n{10**150 + 1},0.5\n{10**150 + 2},-0\n"


def test_write_csv_spans_several_blocks(tmp_path):
    # a table longer than two blocks, with every kind of double in its rows
    rng = np.random.default_rng(7)
    nrows = 2 * CSV_BLOCK + 3
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e308, 1e308]
    floats = rng.standard_normal((nrows, 3)) * 10.0 ** rng.integers(-300, 300, (nrows, 3))
    floats.flat[:: 97] = np.resize(special, floats.flat[:: 97].shape)
    steps = rng.integers(0, 8 * MAX_STEPS + 1, nrows).tolist()
    columns = [steps, *floats.T.tolist()]
    header = ["steps", "a", "b", "c"]
    texts = _write_both_kinds(tmp_path, header, columns)
    assert texts["array"] == texts["rows"] == _expected(header, columns)


SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.225e-308, 1e308, -1e308, 0.1, 1.0 / 3.0,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
INTS = st.integers(-8 * MAX_STEPS, 8 * MAX_STEPS)


@st.composite
def tables(draw):
    """(header, columns): each column all Python ints or all floats."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 30))
    columns = [
        draw(st.lists(draw(st.sampled_from([FLOATS, INTS])), min_size=nrows, max_size=nrows))
        for _ in range(ncols)
    ]
    return [f"c{j}" for j in range(ncols)], columns


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=tables())
def test_write_csv_writes_the_per_value_rule(tmp_path_factory, table):
    # the bytes of the old per-value rule, str() for an integer and
    # format(float(v), ".17g") otherwise, for a float array (integers as
    # their doubles, exact below 2^53) and for row tuples alike; zero-row
    # tables write the header alone
    header, columns = table
    texts = _write_both_kinds(tmp_path_factory.mktemp("csv"), header, columns)
    assert texts["array"] == texts["rows"] == _expected(header, columns)


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
