"""End-to-end runs of the command-line interface, in process where possible.

Every command is exercised against a small config; the assertions pin the
artifact names, the echo contents, the exit codes, and (for reruns) byte
identity of the whole output directory. One subprocess test confirms the
module really is runnable as `python3 -m memheat.cli`.
"""

import filecmp
import json
import math
import subprocess
import sys

import pytest

from memheat.cli import main

SMALL = {
    "kernel": {"type": "constant", "value": 1.0},
    "steps": 200,
    "modes": 4,
    "control": {"family": 12, "active": 6},
    "biorth": {"family": 64, "fit_window": [10, 30], "verify_modes": 10},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_json(path):
    return json.loads(path.read_text())


def read_csv_header(path):
    return path.read_text().splitlines()[0].split(",")


def test_resolvent_command(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "config_echo.json").exists()
    header = read_csv_header(out / "resolvent.csv")
    assert header[:4] == ["t", "kernel", "resolvent", "resolvent_deriv"]
    summary = read_json(out / "resolvent_summary.json")
    assert summary["gain"] == 1.0
    assert summary["identity_residual"] < 1e-12
    # the constant kernel has a closed-form resolvent, so the oracle column
    # is present and the recorded gap is honest quadrature error
    assert "oracle" in header
    assert 0.0 < summary["oracle_sup_error"] < 1e-4


def test_simulate_command_with_refinement(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--refine"]
    )
    assert code == 0
    header = read_csv_header(out / "trajectories.csv")
    assert header == ["t", "w_1", "w_2", "w_3", "w_4"]
    assert read_csv_header(out / "deficiency.csv") == ["t", "deficiency"]
    gaps = read_json(out / "discrepancy.json")
    assert gaps["solve_vs_explicit"] < 1e-10
    assert gaps["series_vs_direct"] < 1e-4
    assert gaps["series_modes_skipped"] == []
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0].split(",") == ["steps", "dt", "sup_error", "ratio"]
    ratios = [float(r.split(",")[3]) for r in rows[2:]]
    assert all(3.8 < r < 4.2 for r in ratios)


def test_simulate_memoryless_routes_coincide_exactly(tmp_path):
    cfg = write_config(
        tmp_path, {"kernel": {"type": "zero"}, "steps": 150, "modes": 3}
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    gaps = read_json(out / "discrepancy.json")
    # without memory both routes collapse to the same closed-form values,
    # bitwise: any nonzero gap here means the degeneration is broken
    assert gaps["solve_vs_explicit"] == 0.0
    assert gaps["series_vs_direct"] == 0.0


def test_moment_command_schema(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
    record = read_json(out / "moments.json")
    assert set(record) == {"T", "modes", "grid"}
    assert set(record["modes"][0]) == {"n", "mu2", "d_n", "trace_factors"}
    assert len(record["modes"]) == 4
    summary = read_json(out / "moment_summary.json")
    assert summary["regime"] == "memory"
    assert summary["scope_start"] == 1
    assert summary["limit"] == pytest.approx(-math.exp(-1.0), abs=1e-4)
    header = read_csv_header(out / "asymptotics.csv")
    assert header == ["n", "mu2", "d_n", "ratio", "residual", "weighted_residual"]


def test_biorth_command(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["biorth", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "biorth_summary.json")
    assert summary["family"] == 64
    assert summary["verify_modes"] == 10
    assert summary["gram_vs_closed_form_log_diff"] < 1e-10
    assert summary["finite_horizon_dominates"] is True
    assert abs(summary["sanity_slope"]) < 1e-3
    assert summary["residual"] < 1e-20
    assert read_csv_header(out / "growth_law.csv") == ["n", "mu2", "log_norm"]
    assert read_csv_header(out / "biorth.csv") == [
        "n",
        "norm",
        "log_norm",
        "residual",
    ]


def test_control_command(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["memoryless_bounded"] is True
    assert verdict["memory_blowup_slope"] > 0.5
    assert verdict["memory_constant"] == 1.0
    header = read_csv_header(out / "control_sweep.csv")
    assert header == [
        "n_active",
        "norm_memoryless",
        "log_norm_memoryless",
        "norm_memory",
        "log_norm_memory",
    ]


def test_control_rejects_non_constant_kernel(tmp_path):
    cfg = write_config(
        tmp_path, {"kernel": {"type": "exp_sum", "terms": [{"c": 1.0, "b": 1.0}]}}
    )
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_coincident_mode_roots_escalate_precision(tmp_path):
    # c = pi^2/4 gives mode 1 a double root (lam2 = 4c); below 64 bits the
    # two roots coincide, which must escalate like any residual miss
    cfg = write_config(
        tmp_path,
        {
            "kernel": {"type": "constant", "value": 2.4674011002723395},
            "control": {"family": 12, "active": 6},
        },
    )
    runs = {}
    for bits in ("32", "64"):
        runs[bits] = tmp_path / bits
        argv = ["control", "--config", str(cfg), "--out", str(runs[bits])]
        assert main(argv + ["--precision", bits]) == 0
    sweep = "control_sweep.csv"
    assert (runs["32"] / sweep).read_bytes() == (runs["64"] / sweep).read_bytes()


def test_bad_config_exits_2_without_output(tmp_path):
    cfg = write_config(tmp_path, {"stepz": 100})
    out = tmp_path / "run"
    assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    missing = tmp_path / "nope.json"
    assert main(["resolvent", "--config", str(missing), "--out", str(out)]) == 2
    assert not out.exists()


def test_degenerate_horizon_exits_3_without_output(tmp_path):
    # M(t) = 1 - t: the resolvent transform crosses zero at t* = 0.86081...,
    # and running the constraint assembly right at the crossing must refuse
    cfg = write_config(
        tmp_path,
        {
            "kernel": {"type": "polynomial", "coeffs": [1.0, -1.0]},
            "horizon": 0.8608178819280081,
            "steps": 400,
            "modes": 3,
        },
    )
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


def test_overrides_are_echoed(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    code = main(
        [
            "resolvent",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--modes",
            "2",
            "--precision",
            "64",
        ]
    )
    assert code == 0
    echo = read_json(out / "config_echo.json")
    assert echo["modes"] == 2
    assert echo["precision"] == 64
    assert echo["steps"] == 200
    with pytest.raises(SystemExit):
        main(["resolvent", "--config", str(cfg), "--precision", "not-a-number"])


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert match == names


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "memheat.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
