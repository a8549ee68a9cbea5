"""End-to-end runs of the command-line interface, in process where possible.

Every command is exercised against a small config; the assertions pin the
artifact names, the echo contents, the exit codes, and (for reruns) byte
identity of the whole output directory. One subprocess test confirms the
module really is runnable as `python3 -m memheat.cli`.
"""

import filecmp
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from memheat import biorth
from memheat.cli import main
from memheat.config import MAX_BIORTH_FAMILY, MAX_CONTROL_FAMILY, MAX_MODES, MAX_SCOPE

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


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(path):
    """Parse strictly: NaN and Infinity, which Python writes by default, fail."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


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
    assert "series_modes_failed" not in gaps
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0].split(",") == ["steps", "dt", "sup_error", "ratio"]
    ratios = [float(r.split(",")[3]) for r in rows[2:]]
    assert all(3.8 < r < 4.2 for r in ratios)


def test_refinement_reuses_the_base_grid(tmp_path, monkeypatch):
    # the main path and every refinement grid go through one solve each: the
    # 1x row of the convergence table is the trajectory the main path solved
    from memheat import experiments

    solved = []
    solve = experiments._solve_trajectories

    def counted(config, steps):
        solved.append(steps)
        return solve(config, steps)

    monkeypatch.setattr(experiments, "_solve_trajectories", counted)
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--refine"]) == 0
    assert sorted(solved) == [200, 400, 800, 1600]


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


def test_simulate_reports_unconverged_series_modes(tmp_path):
    # m = 30: the series cross-check cannot converge (majorant ~2e95 after
    # 60 terms) although the direct route solves every mode, so the run
    # succeeds and names each unchecked mode with the reason
    cfg = write_config(
        tmp_path, {"kernel": {"type": "constant", "value": 30}, "modes": 6}
    )
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="nonpositive shifted rate"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectories.csv").exists()
    gaps = read_json(out / "discrepancy.json")
    assert gaps["series_modes_skipped"] == [1]  # pi^2 - 30 < 0: never attempted
    failed = gaps["series_modes_failed"]
    assert [f["mode"] for f in failed] == [2, 3, 4, 5, 6]
    assert all("did not reach tolerance" in f["reason"] for f in failed)
    assert gaps["series_vs_direct"] is None
    assert gaps["solve_vs_explicit"] < 1e-6


def test_nonpositive_rate_warns_once_per_mode_and_grid(tmp_path):
    # the stacked solve of a grid still warns for each such mode, once
    cfg = write_config(
        tmp_path, {"kernel": {"type": "constant", "value": 30}, "steps": 200, "modes": 6}
    )
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--refine"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    messages = [str(w.message) for w in caught]
    messages = [m for m in messages if "nonpositive shifted rate" in m]
    assert len(messages) == 4  # the main grid and the three refinement grids
    assert all(m.startswith("mode 1 has") for m in messages)


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


def test_moment_solves_each_mode_resolvent_once(tmp_path, monkeypatch):
    # the scope search, the targets and the asymptotic table share h_n: the
    # search solves one rate at a time, the window the rest in one stack
    from memheat import moments

    rates, stacks = [], []
    solve = moments.mode_resolvent_direct
    solve_stack = moments.mode_resolvent_stack

    def counted(rt, mu2):
        rates.append(mu2)
        return solve(rt, mu2)

    def counted_stack(rt, stacked):
        rates.extend(stacked)
        stacks.append(len(stacked))
        return solve_stack(rt, stacked)

    monkeypatch.setattr(moments, "mode_resolvent_direct", counted)
    monkeypatch.setattr(moments, "mode_resolvent_stack", counted_stack)
    cfg = write_config(tmp_path, SMALL)
    assert main(["moment", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(rates) == len(set(rates)) == SMALL["modes"]
    assert stacks == [SMALL["modes"] - 1]  # the search's passing mode is cached


def test_moment_evaluates_each_end_bracket_once(tmp_path, monkeypatch):
    # free_end_value convolves twice per rate; the scope search, the targets
    # and the asymptotic table read the bracket cached on the triple
    from memheat import moments

    rates = []
    convolve_exp = moments.convolve_exp

    def counted(f, rate):
        rates.append(rate)
        return convolve_exp(f, rate)

    monkeypatch.setattr(moments, "convolve_exp", counted)
    cfg = write_config(tmp_path, SMALL)
    assert main(["moment", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(set(rates)) == SMALL["modes"]
    assert all(rates.count(rate) == 2 for rate in rates)


def test_moment_at_a_far_scope_builds_only_its_window(tmp_path):
    # building modes 1..10^8 would take gigabytes; the window is two modes
    cfg = write_config(tmp_path, {"steps": 100, "modes": 2, "scope": 100_000_000})
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "moment_summary.json")["scope_start"] == 100_000_000
    modes = read_json(out / "moments.json")["modes"]
    assert [m["n"] for m in modes] == [100_000_000, 100_000_001]


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


def test_control_with_one_active_mode_writes_null_slopes(tmp_path):
    # a one-point sweep has no slope: null, not the NaN a strict parser rejects
    cfg = write_config(tmp_path, {**SMALL, "control": {"family": 12, "active": 1}})
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["memory_blowup_slope"] is None
    assert verdict["memoryless_slope"] is None
    assert verdict["memoryless_tail_ratio"] == 1.0


def test_control_rejects_non_constant_kernel(tmp_path):
    cfg = write_config(
        tmp_path, {"kernel": {"type": "exp_sum", "terms": [{"c": 1.0, "b": 1.0}]}}
    )
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


COINCIDENT_ROOTS = {
    "kernel": {"type": "constant", "value": 2.4674011002723395},
    "control": {"family": 12, "active": 6},
}


def test_coincident_mode_roots_escalate_precision(tmp_path):
    # c = pi^2/4 gives mode 1 a double root (lam2 = 4c); below 64 bits the
    # two roots coincide, which must escalate like any residual miss
    cfg = write_config(tmp_path, COINCIDENT_ROOTS)
    runs = {}
    for bits in ("32", "64"):
        runs[bits] = tmp_path / bits
        argv = ["control", "--config", str(cfg), "--out", str(runs[bits])]
        assert main(argv + ["--precision", bits]) == 0
    sweep = "control_sweep.csv"
    assert (runs["32"] / sweep).read_bytes() == (runs["64"] / sweep).read_bytes()


def test_ladder_top_exits_3_without_output(tmp_path, monkeypatch, capsys):
    # with the ladder capped at 32 bits the coincident roots never separate:
    # the run fails loudly, names every rung it tried and writes nothing
    monkeypatch.setattr(biorth, "MAX_PRECISION_BITS", 32)
    cfg = write_config(tmp_path, COINCIDENT_ROOTS)
    out = tmp_path / "run"
    argv = ["control", "--config", str(cfg), "--out", str(out), "--precision", "16"]
    assert main(argv) == 3
    assert not out.exists()
    assert "after 16, 32 bits" in capsys.readouterr().err


def test_nonpositive_control_norm_exits_3_without_output(tmp_path, monkeypatch, capsys):
    # the squared norm b^T X b reads only the returned block X of G^-1; a
    # solve whose block has lost definiteness must fail loudly, not write data
    ladder = biorth._ladder_solve

    def negated(*args):
        cols, residuals, bits, attempts = ladder(*args)
        return [[-x for x in col] for col in cols], residuals, bits, attempts

    monkeypatch.setattr(biorth, "_ladder_solve", negated)
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert "nonpositive squared control norm" in capsys.readouterr().err


def test_bad_config_exits_2_without_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"stepz": 100})
    out = tmp_path / "run"
    assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    missing = tmp_path / "nope.json"
    assert main(["resolvent", "--config", str(missing), "--out", str(out)]) == 2
    assert not out.exists()
    # 10^400 is a JSON number that does not fit a double
    huge = write_config(tmp_path, {"kernel": {"type": "constant", "value": 10**400}})
    assert main(["resolvent", "--config", str(huge), "--out", str(out)]) == 2
    assert not out.exists()
    assert "kernel.value: must be finite and fit a double" in capsys.readouterr().err
    # 10^29 steps would fail in the grid allocation; the upper bound refuses it
    many = write_config(tmp_path, {"steps": 10**29})
    for command in ("resolvent", "moment"):
        assert main([command, "--config", str(many), "--out", str(out)]) == 2
        assert not out.exists()
        assert "steps: must be at most 100000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("moment", {"modes": MAX_MODES + 1}, f"modes: must be at most {MAX_MODES}"),
        (
            "biorth",
            {"biorth": {"family": MAX_BIORTH_FAMILY + 1}},
            f"biorth.family: must be at most {MAX_BIORTH_FAMILY}",
        ),
        (
            "control",
            {"control": {"family": MAX_CONTROL_FAMILY + 1}},
            f"control.family: must be at most {MAX_CONTROL_FAMILY}",
        ),
        # near 10^154 (n pi)^2 leaves double range and `moment` ended in a traceback
        ("moment", {"scope": MAX_SCOPE + 1}, f"scope: must be at most {MAX_SCOPE}"),
    ],
    ids=["modes", "biorth.family", "control.family", "scope"],
)
def test_size_past_its_bound_exits_2_without_output(tmp_path, capsys, command, data, message):
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_modes_override_past_its_bound_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--modes", str(MAX_MODES + 1), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"modes: must be at most {MAX_MODES}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["a-file", "under-a-file", "a-directory-at-a-file-name"]
)
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, case):
    if case == "a-directory-at-a-file-name":
        # the directory is fine, but resolvent.csv cannot replace a directory
        out = tmp_path / "run"
        blocker = out / "resolvent.csv" / "kept"
        blocker.parent.mkdir(parents=True)
        message = "--out: cannot write resolvent.csv"
    else:
        blocker = tmp_path / "blocker"
        out = blocker / "run" if case == "under-a-file" else blocker
        message = "--out: cannot create the output directory"
    blocker.write_text("kept")
    assert main(["resolvent", "--out", str(out)]) == 2
    assert blocker.read_text() == "kept"
    assert message in capsys.readouterr().err
    # the echo written before the failing file goes again
    assert not (out / "config_echo.json").exists()


def test_written_files_follow_the_umask(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    previous = os.umask(0o027)
    try:
        assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    # the mode open(path, "w") would give: 0o666 less the umask
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {
        "config_echo.json": 0o640,
        "resolvent.csv": 0o640,
        "resolvent_summary.json": 0o640,
    }


def test_refine_is_a_simulate_flag_only(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["moment", "--out", str(out), "--refine"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --refine" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "biorth_record, key",
    [
        # pi^2 n^2 > 1000 first at n = 11: no mode of the family is usable
        ({"family": 8, "fit_window": [1, 8], "verify_modes": 4}, "biorth.family"),
        ({"family": 64, "fit_window": [1, 30], "verify_modes": 4}, "biorth.fit_window"),
    ],
)
def test_biorth_without_usable_modes_exits_2(tmp_path, capsys, biorth_record, key):
    cfg = write_config(
        tmp_path, {"kernel": {"type": "constant", "value": 1000}, "biorth": biorth_record}
    )
    out = tmp_path / "run"
    assert main(["biorth", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and "first usable mode is 11" in err


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


@pytest.mark.parametrize(
    "command,config,message",
    [
        # dt * K(0) / 2 = -1: the trapezoid pivot of the resolvent solve vanishes
        (
            "resolvent",
            {"kernel": {"type": "constant", "value": -200.0}, "horizon": 1.0, "steps": 100},
            "Volterra step is degenerate",
        ),
        # pi^2 < 20, so a scope pinned at mode 1 holds a nonpositive rate
        (
            "moment",
            {
                "kernel": {"type": "constant", "value": 20.0},
                "horizon": 0.1,
                "steps": 500,
                "modes": 3,
                "scope": 1,
            },
            "scope start 1 admits a nonpositive shifted rate",
        ),
        # e^{-mu2 t} of the negative rates overflows
        (
            "simulate",
            {"kernel": {"type": "constant", "value": 1000}, "steps": 100, "modes": 4},
            "samples must all be finite",
        ),
        # the resolvent of m = 1e300 overflows in its first step
        (
            "resolvent",
            {"kernel": {"type": "exp_sum", "terms": [{"c": 1e300, "b": 0}]}, "steps": 100},
            "samples must all be finite",
        ),
        # e^{-mu2 T} at T = 1e300 underflows the control norm to zero
        (
            "control",
            {"horizon": 1e300, "control": {"family": 8, "active": 4}},
            "outside double range",
        ),
    ],
)
def test_numerical_failure_exits_3_without_output(tmp_path, capsys, command, config, message):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


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
