"""End-to-end runs of the command-line interface, in process where possible.

Every command is exercised against a small config; the assertions pin the
artifact names, the echo contents, the exit codes, and (for reruns) byte
identity of the whole output directory. One subprocess test confirms the
module really is runnable as `python3 -m memheat.cli`.
"""

import cmath
import filecmp
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from mpmath.libmp import mpf_neg

from memheat import NumericalError, biorth, experiments
from memheat.cli import main
from memheat.config import MAX_BIORTH_FAMILY, MAX_CONTROL_FAMILY, MAX_MODES, MAX_SCOPE
from memheat.moments import SCOPE_SEARCH_WIDTH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


@pytest.mark.parametrize(
    "modes, initial",
    [(2, {"rule": "zero"}), (1, {"rule": "explicit", "values": [0.0, 2.0]})],
)
def test_refinement_of_zero_data_writes_nan_ratios(tmp_path, modes, initial):
    # modes at rest stay at rest on every grid: a sup error of exactly 0 has
    # no ratio to the coarser one, so its row reads nan like the first row
    data = {**SMALL, "steps": 100, "modes": modes, "initial": initial}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--refine"]) == 0
    rows = [r.split(",") for r in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["100", "200", "400"]
    assert all(float(r[2]) == 0.0 and r[3] == "nan" for r in rows)


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
    # m = 30: the series cross-check of modes 2 and 3 cannot converge
    # (majorants 3.8e14 and 2.2e-10 after 60 terms) although the direct
    # route solves every mode, so the run succeeds and names each unchecked
    # mode with its own reason; modes 4-6 converge and are checked
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
    assert [f["mode"] for f in failed] == [2, 3]
    assert all("did not reach tolerance" in f["reason"] for f in failed)
    assert failed[0]["reason"] != failed[1]["reason"]  # each its own rate and majorant
    assert 0.0 < gaps["series_vs_direct"] < 1e-3
    assert gaps["solve_vs_explicit"] < 1e-6


def _series_counts(monkeypatch):
    """Record the rates and per-rate term counts of every stacked series
    that `simulate`'s cross-check runs."""
    from memheat import experiments

    calls = []
    series = experiments.mode_resolvent_series_stack

    def recorded(rt, rates, terms):
        calls.append((list(rates), list(terms)))
        return series(rt, rates, terms)

    monkeypatch.setattr(experiments, "mode_resolvent_series_stack", recorded)
    return calls


def test_simulate_const30_checks_the_modes_whose_series_converge(tmp_path, monkeypatch):
    # each rate stops at its own term count: modes 4-6 converge in 42, 31
    # and 26 terms and are checked, only modes 2 and 3 are listed as failed
    calls = _series_counts(monkeypatch)
    out = tmp_path / "run"
    cfg = CONFIGS / "simulate_const30.json"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    with pytest.warns(UserWarning, match="nonpositive shifted rate"):
        assert main(argv) == 0
    gaps = read_json(out / "discrepancy.json")
    assert gaps["series_modes_skipped"] == [1]
    assert [f["mode"] for f in gaps["series_modes_failed"]] == [2, 3]
    [(rates, terms)] = calls
    assert rates == [n * n * math.pi**2 - 30.0 for n in (4, 5, 6)]
    assert terms == [42, 31, 26]
    assert 0.0 < gaps["series_vs_direct"] < 1e-2


def test_simulate_lists_every_checked_mode_when_the_series_stack_fails(tmp_path, monkeypatch):
    # the series only cross-checks the direct route: a failing stack lists
    # the modes it was to check with its reason, in mode order after those
    # whose own majorant failed, and the run still succeeds
    from memheat import experiments

    def failing(*args):
        raise NumericalError("the series stack failed")

    monkeypatch.setattr(experiments, "mode_resolvent_series_stack", failing)
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(CONFIGS / "simulate_const30.json"), "--out", str(out)]
    with pytest.warns(UserWarning, match="nonpositive shifted rate"):
        assert main(argv) == 0
    gaps = read_json(out / "discrepancy.json")
    assert gaps["series_vs_direct"] is None
    assert gaps["series_modes_skipped"] == [1]
    failed = gaps["series_modes_failed"]
    assert [f["mode"] for f in failed] == [2, 3, 4, 5, 6]
    assert all("did not reach tolerance" in f["reason"] for f in failed[:2])
    assert failed[0]["reason"] != failed[1]["reason"]
    assert [f["reason"] for f in failed[2:]] == ["the series stack failed"] * 3


def _patch_every_binding(monkeypatch, name, replacement):
    """Replace a memheat function in every package module that binds it."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "memheat"]
    original = getattr(next(m for m in modules if hasattr(m, name)), name)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_simulate_builds_the_mode_kernels_and_each_series_count_once(tmp_path, monkeypatch):
    # the direct resolvents are solved from the z of the trajectories' solve,
    # the explicit route reads the k of that solve, and the series stack
    # takes the term counts the cross-check settled: one mode_kernels and
    # one _rhs_stack call, one series_terms call per positive mode, and no
    # one-mode explicit route
    from memheat import dynamics, experiments, resolvents

    kernel_calls, rhs_calls, count_calls, explicit_calls = [], [], [], []
    kernels, rhs, terms = resolvents.mode_kernels, dynamics._rhs_stack, resolvents.series_terms
    explicit = dynamics.explicit_mode

    def counted_kernels(rt, rates):
        kernel_calls.append(rates)
        return kernels(rt, rates)

    def counted_rhs(rates, rt, xis, g):
        rhs_calls.append(rates)
        return rhs(rates, rt, xis, g)

    def counted_terms(rt, mu2, tol):
        count_calls.append(mu2)
        return terms(rt, mu2, tol)

    def counted_explicit(mode, *args):
        explicit_calls.append(mode.index)
        return explicit(mode, *args)

    for module in (dynamics, resolvents):
        monkeypatch.setattr(module, "mode_kernels", counted_kernels)
    monkeypatch.setattr(dynamics, "_rhs_stack", counted_rhs)
    for module in (experiments, resolvents):
        monkeypatch.setattr(module, "series_terms", counted_terms)
    _patch_every_binding(monkeypatch, "explicit_mode", counted_explicit)
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(CONFIGS / "simulate_const.json"), "--out", str(out)]
    assert main(argv) == 0
    rates = [n * n * math.pi**2 - 1.0 for n in range(1, 9)]
    assert kernel_calls == rhs_calls == [rates]
    assert count_calls == rates
    assert explicit_calls == []


def test_control_complex_series_gap_is_the_routes_discretization(tmp_path, monkeypatch):
    # constant 10: mode 1 has a negative rate, modes 2-4 converge in 28, 19
    # and 15 terms. Their series-vs-direct gap is the two routes' O(dt^2)
    # quadrature gap, not truncation: it quarters when the steps double
    # (5.9e-4 at 200 steps, 1.5e-4 at 400)
    calls = _series_counts(monkeypatch)
    config = json.loads((CONFIGS / "control_complex.json").read_text())
    series_gaps = []
    for steps in (200, 400):
        cfg = write_config(tmp_path, dict(config, steps=steps), name=f"{steps}.json")
        out = tmp_path / f"run{steps}"
        with pytest.warns(UserWarning, match="nonpositive shifted rate"):
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        gaps = read_json(out / "discrepancy.json")
        assert gaps["series_modes_skipped"] == [1]
        assert "series_modes_failed" not in gaps
        series_gaps.append(gaps["series_vs_direct"])
    assert [terms for _, terms in calls] == [[28, 19, 15]] * 2
    assert 1e-4 < series_gaps[0] < 1e-3
    assert 3.5 <= series_gaps[0] / series_gaps[1] <= 4.5


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


@pytest.mark.parametrize("scope", ["auto", 3])
def test_moment_window_brackets_are_one_stacked_call(tmp_path, monkeypatch, scope):
    # the scope search reads one rate at a time and stops at mode 1; the
    # window's brackets are then one end_brackets call over exactly its
    # rates, whose h and e0*q are each one stacked call over the same rates,
    # and whose (h*e0)(T) is read off one one-row quadrature per rate; no
    # one-rate wrapper is called
    from memheat import algebra, moments

    calls = {"brackets": [], "h": [], "e0q": [], "monomial": []}

    def counted(name, fn, rates_at):
        def wrapper(*args):
            calls[name].append(list(np.atleast_1d(args[rates_at])))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(moments, "end_brackets", counted("brackets", moments.end_brackets, 1))
    monkeypatch.setattr(
        moments, "mode_resolvent_stack", counted("h", moments.mode_resolvent_stack, 1)
    )
    monkeypatch.setattr(
        moments, "convolve_exp_stack", counted("e0q", moments.convolve_exp_stack, 2)
    )
    _patch_every_binding(
        monkeypatch,
        "convolve_exp_monomial",
        counted("monomial", algebra.convolve_exp_monomial, 1),
    )
    cfg = write_config(tmp_path, {**SMALL, "scope": scope})
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
    window = [m["mu2"] for m in read_json(out / "moments.json")["modes"]]
    assert len(window) == SMALL["modes"]
    search = [window[:1]] if scope == "auto" else []
    assert calls["brackets"] == search + [window]
    assert calls["h"] == calls["brackets"]
    assert calls["e0q"] == [
        call for rates in calls["brackets"] for call in [rates] + [[rate] for rate in rates]
    ]
    assert calls["monomial"] == []


def test_moment_leaves_the_resolvent_triple_unchanged(tmp_path, monkeypatch):
    # the triple is frozen: the scope search, the table and the record
    # store nothing on it
    from memheat import experiments

    triples = []
    resolvent_of = experiments.resolvent_of

    def recorded(kernel, grid):
        rt = resolvent_of(kernel, grid)
        triples.append((rt, dict(vars(rt))))
        return rt

    monkeypatch.setattr(experiments, "resolvent_of", recorded)
    cfg = write_config(tmp_path, SMALL)
    assert main(["moment", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(triples) == 1
    rt, before = triples[0]
    assert vars(rt).keys() == before.keys()
    assert all(vars(rt)[key] is value for key, value in before.items())


def test_weak_kernel_moment_runs_as_memory(tmp_path):
    # the resolvent of m = 1e-5 stays near 1e-5 everywhere: small, not
    # vanishing at T, so the horizon guard (relative to sup |R|) passes it
    data = {"kernel": {"type": "constant", "value": 1e-5}, "steps": 200, "modes": 4}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_json(out / "moment_summary.json")
    assert summary["regime"] == "memory"
    assert summary["limit"] == pytest.approx(-1e-5 * math.exp(-1e-5), rel=1e-6)
    # mode 1's memoryless part, mu2 e^{-mu2} ~ 5e-4, outweighs half the limit
    assert summary["scope_start"] == 2
    assert summary["sup_weighted_residual"] < 1e-9


def test_moment_at_a_far_scope_builds_only_its_window(tmp_path):
    # building modes 1..10^8 would take gigabytes; the window is two modes
    cfg = write_config(tmp_path, {"steps": 100, "modes": 2, "scope": 100_000_000})
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "moment_summary.json")["scope_start"] == 100_000_000
    modes = read_json(out / "moments.json")["modes"]
    assert [m["n"] for m in modes] == [100_000_000, 100_000_001]


ZERO_SPELLINGS = [
    {"type": "constant", "value": 0},
    {"type": "polynomial", "coeffs": [0.0, 0.0]},
    {"type": "exp_sum", "terms": [{"c": 0, "b": 2}]},
]
MOMENT_FILES = ("moments.json", "asymptotics.csv", "moment_summary.json")


@pytest.mark.parametrize("kernel", ZERO_SPELLINGS, ids=lambda k: k["type"])
def test_zero_valued_kernel_moment_is_memoryless(tmp_path, kernel):
    # a kernel that vanishes identically has no resolvent to guard: its
    # moment files are those of the zero kernel, not a horizon refusal
    runs = {}
    for name, spelling in (("zero", {"type": "zero"}), ("spelled", kernel)):
        data = {"kernel": spelling, "steps": 200, "modes": 4}
        cfg = write_config(tmp_path, data, f"{name}.json")
        runs[name] = tmp_path / name
        assert main(["moment", "--config", str(cfg), "--out", str(runs[name])]) == 0
    for file in MOMENT_FILES:
        assert (runs["spelled"] / file).read_bytes() == (runs["zero"] / file).read_bytes()
    assert read_json(runs["spelled"] / "moment_summary.json")["regime"] == "memoryless"


def test_underflowing_kernel_moment_is_memoryless(tmp_path):
    # 5e-324 t underflows to 0 at every node up to T = 0.25: no kernel
    # sample carries memory, so the run is the zero kernel's, not a search
    # of 64 modes that exits 3
    runs = {}
    for name, kernel in (
        ("zero", {"type": "zero"}),
        ("underflow", {"type": "polynomial", "coeffs": [0.0, 5e-324]}),
    ):
        data = {"kernel": kernel, "horizon": 0.25, "steps": 200, "modes": 4}
        cfg = write_config(tmp_path, data, f"{name}.json")
        runs[name] = tmp_path / name
        assert main(["moment", "--config", str(cfg), "--out", str(runs[name])]) == 0
    for file in MOMENT_FILES:
        assert (runs["underflow"] / file).read_bytes() == (runs["zero"] / file).read_bytes()
    summary = read_json(runs["underflow"] / "moment_summary.json")
    assert summary["regime"] == "memoryless"
    assert summary["end_value"] == 0.0


@pytest.mark.parametrize("scope", [None, 100], ids=["auto", "pinned"])
def test_subnormal_kernel_moment_exits_3(tmp_path, capsys, scope):
    # up to T = 1 the samples 5e-324 t are 0 or 5e-324: a resolvent with no
    # significant digits, whose rescaled targets all underflow to 0. It is
    # refused before the scope search, and before a pinned scope reports a
    # law that does not hold.
    data = {
        "kernel": {"type": "polynomial", "coeffs": [0.0, 5e-324]},
        "horizon": 1.0,
        "steps": 200,
        "modes": 4,
    }
    if scope is not None:
        data["scope"] = scope
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "subnormal on the whole grid" in err
    assert "nondegeneracy margin" not in err
    assert not (out / "moment_summary.json").exists()


def test_scope_search_failure_names_the_scope_key(tmp_path, capsys):
    # no mode of the searched range passes the margin; pinning "scope" past
    # it is the config's way out, so the message must say so
    data = {
        "kernel": {"type": "polynomial", "coeffs": [1.0, 40000.0]},
        "horizon": 1.0,
        "steps": 100,
        "modes": 2,
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"n = 1..{SCOPE_SEARCH_WIDTH}" in err
    assert f'pin "scope" in the config to an index past {SCOPE_SEARCH_WIDTH}' in err


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


@pytest.mark.parametrize(
    "initial", [{"rule": "zero"}, {"rule": "explicit", "values": [0.0, 1.0]}]
)
def test_control_with_mode_1_at_rest_exits_2(tmp_path, capsys, initial):
    # the sweep starts by steering mode 1 alone; at rest it needs no control,
    # a squared norm of exactly 0 that is the config's doing, not the solve's
    cfg = write_config(tmp_path, {**SMALL, "initial": initial})
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "initial" in err
    assert "positive definiteness" not in err


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
    runs = {}
    for bits in ("32", "64"):
        data = {**COINCIDENT_ROOTS, "precision": int(bits)}
        cfg = write_config(tmp_path, data, f"{bits}.json")
        runs[bits] = tmp_path / bits
        assert main(["control", "--config", str(cfg), "--out", str(runs[bits])]) == 0
    sweep = "control_sweep.csv"
    assert (runs["32"] / sweep).read_bytes() == (runs["64"] / sweep).read_bytes()


def test_ladder_top_exits_3_without_output(tmp_path, monkeypatch, capsys):
    # with the ladder capped at 32 bits the coincident roots never separate:
    # the run fails loudly, names every rung it tried and writes nothing
    monkeypatch.setattr(biorth, "MAX_PRECISION_BITS", 32)
    cfg = write_config(tmp_path, {**COINCIDENT_ROOTS, "precision": 16})
    out = tmp_path / "run"
    assert main(["control", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert "after 16, 32 bits" in capsys.readouterr().err


def test_nonpositive_control_norm_exits_3_without_output(tmp_path, monkeypatch, capsys):
    # the squared norm b^T X b reads only the returned block X of G^-1; a
    # solve whose block has lost definiteness must fail loudly, not write data
    ladder = biorth._ladder_solve

    def negated(*args):
        cols, residuals, bits, attempts = ladder(*args)
        return [[mpf_neg(x) for x in col] for col in cols], residuals, bits, attempts

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
    # the mode count is set in the config alone, and simulate refuses it too
    cfg = write_config(tmp_path, {"modes": MAX_MODES + 1})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"modes: must be at most {MAX_MODES}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--modes", "3"], ["--precision", "64"]])
def test_the_config_alone_sets_modes_and_precision(tmp_path, capsys, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--out", str(out), *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_series_tol_is_not_a_config_key(tmp_path, capsys):
    # the series route's tolerance is resolvents.SERIES_TOL, set by no run
    cfg = write_config(tmp_path, {**SMALL, "series_tol": 1e-12})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "series_tol: unknown key" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "constant", "value": 1e40},
        {"type": "exp_sum", "terms": [{"c": 1e200, "b": 1}]},
        {"type": "polynomial", "coeffs": [1e200, 30]},
    ],
    ids=lambda k: k["type"],
)
def test_biorth_at_a_huge_gain_exits_2(tmp_path, capsys, kernel):
    # the first usable mode is past 2^63, so no family member is usable and
    # the family must be refused before any array of indices is built
    cfg = write_config(tmp_path, {"kernel": kernel})
    out = tmp_path / "run"
    assert main(["biorth", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "biorth.family" in err and "first usable mode is" in err


def test_moment_with_a_scope_below_the_gain_crossover_exits_2(tmp_path, capsys):
    # pi^2 < 20 < 4 pi^2: a scope pinned at mode 1 holds a nonpositive rate,
    # a config error refused before any solve, as biorth.fit_window is
    data = {"kernel": {"type": "constant", "value": 20.0}, "horizon": 0.1, "steps": 500}
    cfg = write_config(tmp_path, {**data, "modes": 3, "scope": 1})
    out = tmp_path / "run"
    assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "scope" in err and "first usable mode is 2" in err


def test_resolvent_whose_exact_resolvent_overflows_exits_3(tmp_path, capsys, monkeypatch):
    # m = -50: the closed form -50 e^{50 t} is the exact resolvent, and it
    # leaves double range past t ~ 14, so the finite solve on this grid
    # (end value -8.4e116) cannot be right; the run is refused before the
    # solve, writes nothing and says to shorten the horizon
    solves = []
    monkeypatch.setattr(experiments, "resolvent_of", lambda *args: solves.append(args))
    data = {"kernel": {"type": "constant", "value": -50}, "horizon": 50, "steps": 400}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "exact resolvent leaves double range at t = 14.125" in err
    assert "shorten the horizon" in err
    assert solves == []


def free_mode_of_constant_kernel(lam2, c, t):
    """Exact free mode w(t) of w'' + lam2 w' + c lam2 w = 0, w(0) = 1,
    w'(0) = -lam2: the mode equation of the constant kernel c."""
    disc = cmath.sqrt(lam2 * lam2 - 4.0 * c * lam2)
    rp, rm = (-lam2 + disc) / 2.0, (-lam2 - disc) / 2.0
    a = (-lam2 - rm) / (rp - rm)
    return [(a * cmath.exp(rp * s) + (1.0 - a) * cmath.exp(rm * s)).real for s in t]


def read_trajectories(out):
    rows = [line.split(",") for line in (out / "trajectories.csv").read_text().splitlines()[1:]]
    return [[float(cell) for cell in row] for row in rows]


def test_simulate_past_the_square_overflow_writes_finite_deficiency(tmp_path):
    # m = -5 makes mode 1 grow by a factor 315 over T = 2, as the exact mode
    # does (6.1e-4 apart, relatively, at 200 steps: O(dt^2)), and
    # xi_1 = 1e160 puts w_1 past 1.3e155, where the square of w_1/lam_1^2
    # overflows a double; yet the deficiency sqrt(sum (w_n/lam_n^2)^2) of
    # one mode is |w_1|/lam_1^2, which is finite
    data = {
        "kernel": {"type": "constant", "value": -5.0},
        "horizon": 2.0,
        "steps": 200,
        "modes": 1,
        "initial": {"rule": "explicit", "values": [1e160]},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    t, w1 = zip(*read_trajectories(out))
    lam2 = math.pi**2
    exact = free_mode_of_constant_kernel(lam2, -5.0, t)
    assert exact[-1] > 300.0  # growth, not only large data
    assert all(abs(w - 1e160 * e) <= 1e-3 * 1e160 * abs(e) for w, e in zip(w1, exact))
    assert max(map(abs, w1)) > 1.4e154 * lam2
    lines = (out / "deficiency.csv").read_text().splitlines()[1:]
    deficiency = [float(line.split(",")[1]) for line in lines]
    assert len(deficiency) == len(w1)
    for d, w in zip(deficiency, w1):
        assert math.isfinite(d)
        assert abs(d - abs(w) / lam2) <= 1e-15 * abs(w) / lam2


def test_simulate_keeps_a_growing_mode_on_its_ode(tmp_path):
    # m = 30: mode 1's shifted rate pi^2 - 30 = -20.13 makes its z and k grow
    # like e^{20.13 t}, to e^{40} at T = 2. Their product quadrature is a
    # recursion whose round-off is relative to the row, so w_1 follows the
    # exact mode through t = 1: 2.2e-4 apart at most, O(dt^2) (5.4e-5 at
    # 4,000 steps). An FFT quadrature's absolute round-off, about eps e^{40},
    # put w_1(dt) at 5.02 against 0.990 and w_1(1) at 3.0e12. Past t = 1 the
    # solve's own FFT history and the representation's cancellation take over.
    data = {"kernel": {"type": "constant", "value": 30}, "horizon": 2.0, "steps": 2000, "modes": 6}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="mode 1 has nonpositive shifted rate"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [row for row in read_trajectories(out) if row[0] <= 1.0]
    t = [row[0] for row in rows]
    exact = free_mode_of_constant_kernel(math.pi**2, 30.0, t)
    assert rows[1][1] == pytest.approx(0.990, abs=1e-3)
    assert max(abs(row[1] - e) for row, e in zip(rows, exact)) <= 1e-3


@pytest.mark.parametrize(
    "command,config,message",
    [
        # dt * K(0) / 2 = -1: the trapezoid pivot of the resolvent solve vanishes
        (
            "resolvent",
            {"kernel": {"type": "constant", "value": -200.0}, "horizon": 1.0, "steps": 100},
            "Volterra step is degenerate",
        ),
        # M(t) = 1 - t: the resolvent transform crosses zero at t* = 0.86081...,
        # and running the constraint assembly right at the crossing must refuse
        (
            "moment",
            {
                "kernel": {"type": "polynomial", "coeffs": [1.0, -1.0]},
                "horizon": 0.8608178819280081,
                "steps": 400,
                "modes": 3,
            },
            "the kernel resolvent vanishes at the horizon",
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
        # m = -100: every shifted rate n^2 pi^2 + 100 is positive, so nothing
        # warns, but the kernel resolvent -100 e^{100 t} reaches 5e21 at
        # T = 0.5 and 7e86 at T = 2, and w + z*w = k cancels terms of that
        # size: the solve's w_1(T) reads -2.2e10 and 1.1e166 against 2.9e5
        # and 9.2e22 exact. Mode 1's explicit route parts from it by 1.4e-5
        # and 2.4e72 of max(|k|, |w|), where sound runs stay below 1e-13
        *(
            (
                "simulate",
                {
                    "kernel": {"type": "constant", "value": -100},
                    "horizon": horizon,
                    "steps": 2000,
                    "modes": 6,
                },
                "mode 1: the Volterra solve and the explicit route differ",
            )
            for horizon in (0.5, 2.0)
        ),
        # a constant -50 with no closed form: at dt = 0.125 the trapezoid
        # pivot 1 + dt m(0)/2 is -2.125, the scheme flips sign and grows at
        # every step, and the run exited 0 with end_value -8.41e116;
        # `resolvent_of` refuses such a grid before the solve (a pivot of
        # exactly 0, the first case, keeps the solve's own message)
        (
            "resolvent",
            {"kernel": {"type": "polynomial", "coeffs": [-50]}, "horizon": 50, "steps": 400},
            "pivot 1 + dt*m(0)/2 is -2.125 < 0: dt*|m(0)| = 6.25 exceeds 2",
        ),
    ],
)
def test_numerical_failure_exits_3_without_output(tmp_path, capsys, command, config, message):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_an_overflowing_solve_stops_at_its_first_overflowing_block(tmp_path, capsys, monkeypatch):
    # a constant -50, written as a polynomial so that no closed form refuses
    # the run first, on a coarse grid whose pivot 1 + dt m(0)/2 is still
    # positive (dt |m(0)| = 1.5; past 2 `resolvent_of` refuses the grid
    # before the solve) grows so fast per node that its base block is 4
    # nodes; the resolvent overflows after 247 spans, and the solve stops
    # there instead of running its 25,000 blocks
    from memheat import algebra

    spans = []
    solve_span = algebra._solve_span

    def counted(*args):
        spans.append(None)
        return solve_span(*args)

    monkeypatch.setattr(algebra, "_solve_span", counted)
    cfg = write_config(
        tmp_path, {"kernel": {"type": "polynomial", "coeffs": [-50]}, "horizon": 3000, "steps": 100000}
    )
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["resolvent", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert "samples must all be finite" in capsys.readouterr().err
    assert len(spans) < 1000


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
