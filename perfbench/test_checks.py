"""Tests of the benchmark's own correctness checks.

    python3 -m pytest -q perfbench/test_checks.py

Canned outputs hold every invariant, or break exactly one, so each test
shows one way a command run must count as failed.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOOD = {
    "simulate": {"discrepancy.json": {"solve_vs_explicit": 1e-16}},
    "moment": {"moment_summary.json": {"sup_weighted_residual": 0.5}},
    "biorth": {
        "biorth_summary.json": {
            "residual": 1e-22,
            "gram_vs_closed_form_log_diff": 1e-14,
            "slope": 3.06,
            "finite_horizon_dominates": True,
        }
    },
    "control": {
        "verdict.json": {
            "residual_memory": 1e-90,
            "residual_memoryless": 1e-90,
            "memoryless_bounded": True,
            "memory_monotone": True,
            "memory_blowup_slope": 2.1,
        }
    },
}
CONVERGENCE = "steps,dt,sup_error,ratio\n1000,0.001,4e-7,nan\n2000,0.0005,1e-7,3.99999\n"


def write_outputs(out: Path, command: str, broken=None, convergence=CONVERGENCE):
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text("{}\n")
    for name, payload in GOOD[command].items():
        payload = dict(payload)
        if broken:
            payload.update(broken)
        (out / name).write_text(json.dumps(payload))
    if command == "simulate" and convergence is not None:
        (out / "convergence.csv").write_text(convergence)


def commands(tmp_path, command):
    cfg = tmp_path / "c.json"
    out = tmp_path / command
    argv = (command, "--config", str(cfg), "--out", str(out))
    return [workloads.Command(command, argv, out, cfg)]


@pytest.mark.parametrize("command", sorted(GOOD))
def test_good_outputs_pass(tmp_path, command):
    write_outputs(tmp_path, command)
    assert checks.check(command, tmp_path) == []


@pytest.mark.parametrize(
    "command, broken",
    [
        ("simulate", {"solve_vs_explicit": 1e-6}),
        ("moment", {"sup_weighted_residual": 1.5}),
        ("biorth", {"residual": 3.5e-20}),
        ("biorth", {"gram_vs_closed_form_log_diff": 1e-9}),
        ("biorth", {"slope": 2.9}),
        ("biorth", {"finite_horizon_dominates": False}),
        ("control", {"residual_memoryless": 2e-20}),
        ("control", {"memoryless_bounded": False}),
        ("control", {"memory_monotone": False}),
        ("control", {"memory_blowup_slope": 0.5}),
        ("control", {"memory_blowup_slope": float("nan")}),
    ],
)
def test_one_broken_invariant_fails(tmp_path, command, broken):
    write_outputs(tmp_path, command, broken)
    assert len(checks.check(command, tmp_path)) == 1


@pytest.mark.parametrize(
    "convergence",
    [
        "steps,dt,sup_error,ratio\n1000,0.001,4e-7,nan\n2000,0.0005,2e-7,2.0\n",
        "steps,dt,sup_error,ratio\n1000,0.001,4e-7,nan\n",
    ],
)
def test_convergence_ratio_outside_band_fails(tmp_path, convergence):
    write_outputs(tmp_path, "simulate", convergence=convergence)
    assert len(checks.check("simulate", tmp_path)) == 1


def test_missing_outputs_fail(tmp_path):
    assert checks.check("control", tmp_path) == ["config_echo.json missing"]
    (tmp_path / "config_echo.json").write_text("{}\n")
    assert checks.check("control", tmp_path)[0].startswith("unreadable output")


def test_broken_invariant_counts_as_failed_run(tmp_path):
    cmds = commands(tmp_path, "control")
    write_outputs(cmds[0].out, "control", {"memory_monotone": False})
    assert run.check_pass(cmds, [0], {}) == 1


def test_nonzero_exit_counts_as_failed_run(tmp_path):
    cmds = commands(tmp_path, "control")
    write_outputs(cmds[0].out, "control")
    assert run.check_pass(cmds, [0], {}) == 0
    assert run.check_pass(cmds, [3], {}) == 1


def test_byte_drift_against_first_pass_counts_as_failed_run(tmp_path):
    cmds = commands(tmp_path, "moment")
    reference = {}
    write_outputs(cmds[0].out, "moment")
    assert run.check_pass(cmds, [0], reference) == 0
    assert run.check_pass(cmds, [0], reference) == 0
    (cmds[0].out / "config_echo.json").write_text('{"drift": 1}\n')
    assert run.check_pass(cmds, [0], reference) == 1


def test_workloads_repeat_per_seed_and_vary_only_values(tmp_path):
    def configs(seed, sub):
        cmds = workloads.build("march", seed, tmp_path / sub)
        return [json.loads(c.config.read_text()) for c in cmds]

    a, again, b = configs(1, "a"), configs(1, "again"), configs(2, "b")
    assert a == again
    assert a != b
    for x, y in zip(a, b):
        assert x["steps"] == y["steps"] and x["modes"] == y["modes"]
    kernels = [cfg[0]["kernel"]["terms"] for cfg in (a, b)]
    for terms in kernels:
        assert sum(t["c"] for t in terms) == pytest.approx(workloads.EXP_SUM_GAIN)
        assert sum(t["b"] * t["c"] for t in terms) == pytest.approx(
            workloads.EXP_SUM_SLOPE
        )


def test_tracer_sees_every_binding_and_thread():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import memheat.cli  # noqa: F401  (binds every module the tracer patches)
    from memheat import experiments, moments, resolvents
    from memheat.grids import TimeGrid
    from memheat.kernels import ConstantKernel

    import spans

    original = moments.mode_resolvent_direct
    tracer = spans.Tracer()
    tracer.install()
    try:
        rt = resolvents.resolvent_of(ConstantKernel(1.0), TimeGrid(1.0, 100))
        moments.mode_resolvent_direct(rt, 5.0)
        experiments._per_mode(
            lambda mu: experiments.mode_resolvent_direct(rt, mu), [5.0, 6.0, 7.0]
        )
    finally:
        tracer.uninstall()
    assert moments.mode_resolvent_direct is original
    m = tracer.metrics()
    assert m["resolvents.mode_resolvent_direct.calls"] == 4
    assert m["resolvents.mode_resolvent_direct.distinct_ratio"] == 0.75
    assert m["algebra.volterra_solve.calls"] == 5
    assert m["algebra.volterra_solve.madds"] == 5 * 100 * 99 // 2
    assert all(m[f"{layer}.self_s"] >= 0 for layer in spans.LAYERS)


def test_calibrator_samples_from_start_to_end_of_a_command():
    for loop in set(worker.LOOP_OF.values()):
        with worker.Calibrator(loop) as calibrator:
            time.sleep(3.5 * worker.CALIBRATION_PERIOD_S)
        # One sample as the command starts, one per period, one as it ends.
        assert len(calibrator.samples) >= 4
        assert calibrator.scale > 0


def test_every_command_has_a_reference_loop(tmp_path):
    names = {c.name for w in workloads.GENERATORS for c in workloads.build(w, 1, tmp_path / w)}
    assert names <= set(worker.LOOP_OF)


def test_benchmark_json_lists_every_metric_and_workload():
    import spans

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mb"}
