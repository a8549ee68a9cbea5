"""Command implementations behind the CLI: compute everything, then write.

Each command validates what it needs, runs the full computation, and only
then emits its files, so a failed run leaves no partial output directory.
Every successful run writes `config_echo.json` with the fully resolved
configuration next to the data files. All work and every file write happen
on the calling thread; each write is atomic.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .biorth import (
    cauchy_inverse_log_diag,
    control_norm_sweep,
    fit_log_growth,
    gram,
    growth_fit,
    min_norm_biorth,
    orthonormal_family_gram,
)
from .config import ExperimentConfig
from .errors import ConfigError
from .grids import SampledFunction, TimeGrid
from .kernels import ConstantKernel
from .modes import dirichlet_modes_1d, first_positive_index
from .moments import (
    asymptotic_table,
    build_moment_problem,
    moment_problem_record,
    scope_threshold,
)
from .output import write_csv, write_json
from .resolvents import (
    mode_resolvent_direct,
    mode_resolvent_series,
    resolvent_of,
)
from .dynamics import explicit_mode, solve_mode

SCOPE_SEARCH_WIDTH = 64


def _per_mode(fn, items):
    """Map fn over per-mode work items, in order, on the calling thread.

    The per-mode work is a Python loop per time step that holds the
    interpreter lock, so a thread pool only adds overhead. The benchmark's
    tracer self-test (perfbench/test_checks.py) calls this helper by name.
    """
    return [fn(x) for x in items]


def _write_outputs(out_dir: Path, echo: dict, csv_files: dict, json_files: dict):
    """Single write phase: echo first, then every data file, all atomic."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config_echo.json", echo)
    for name, (header, rows) in csv_files.items():
        write_csv(out_dir / name, header, rows)
    for name, payload in json_files.items():
        write_json(out_dir / name, payload)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def cmd_resolvent(config: ExperimentConfig, out_dir, refine: bool = False) -> dict:
    """Tabulate the kernel's resolvent and its derivative, against the
    closed-form oracle when the kernel family has one."""
    grid = TimeGrid(config.horizon, config.steps)
    rt = resolvent_of(config.kernel, grid)
    kernel_vals = config.kernel(grid.nodes)
    oracle = config.kernel.closed_form_resolvent(grid.nodes)

    header = ["t", "kernel", "resolvent", "resolvent_deriv"]
    columns = [grid.nodes, kernel_vals, rt.resolvent.values, rt.resolvent_deriv.values]
    oracle_sup_error = None
    if oracle is not None:
        err = np.abs(rt.resolvent.values - oracle)
        oracle_sup_error = float(err.max())
        header += ["oracle", "abs_error"]
        columns += [oracle, err]
    rows = list(zip(*columns))

    summary = {
        "gain": rt.gain,
        "identity_residual": rt.identity_residual(),
        "end_value": rt.end_value(),
        "oracle_sup_error": oracle_sup_error,
    }
    _write_outputs(
        Path(out_dir),
        config.echo(),
        {"resolvent.csv": (header, rows)},
        {"resolvent_summary.json": summary},
    )
    return summary


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _solve_trajectories(config: ExperimentConfig, steps: int) -> np.ndarray:
    """Volterra-route free trajectories on a grid with the given step count."""
    grid = TimeGrid(config.horizon, steps)
    rt = resolvent_of(config.kernel, grid)
    modes = dirichlet_modes_1d(config.modes, rt.gain)
    g = SampledFunction.zeros(grid)
    xis = config.initial.values(config.modes)
    rows = _per_mode(
        lambda mx: solve_mode(mx[0], rt, mx[1], g).w.values, zip(modes, xis)
    )
    return np.stack(rows)


def cmd_simulate(config: ExperimentConfig, out_dir, refine: bool = False) -> dict:
    """Free modal trajectories, the dual-representation gap, and the
    deficiency time series; optionally a grid-refinement table."""
    grid = TimeGrid(config.horizon, config.steps)
    rt = resolvent_of(config.kernel, grid)
    modes = dirichlet_modes_1d(config.modes, rt.gain)
    g = SampledFunction.zeros(grid)
    xis = config.initial.values(config.modes)

    def one(mode_xi):
        mode, xi = mode_xi
        traj = solve_mode(mode, rt, xi, g)
        h = mode_resolvent_direct(rt, mode.shifted_rate)
        gap = (traj.w - explicit_mode(mode, rt, h, xi, g).w).sup_norm()
        if mode.shifted_rate > 0:
            h_series, _ = mode_resolvent_series(rt, mode.shifted_rate, config.series_tol)
            series_gap = (h_series - h).sup_norm()
        else:
            series_gap = None
        return traj, gap, series_gap

    results = _per_mode(one, zip(modes, xis))
    trajectories = [r[0] for r in results]
    gaps = [r[1] for r in results]
    series_gaps = [r[2] for r in results if r[2] is not None]
    skipped = [m.index for m, r in zip(modes, results) if r[2] is None]

    w = np.stack([t.w.values for t in trajectories])  # (N, size)
    lam2 = np.array([m.eigenvalue for m in modes])
    deficiency = np.sqrt(np.sum((w / lam2[:, None]) ** 2, axis=0))

    traj_header = ["t"] + [f"w_{m.index}" for m in modes]
    traj_rows = list(zip(grid.nodes, *w))
    defic_rows = list(zip(grid.nodes, deficiency))

    discrepancy = {
        "solve_vs_explicit": float(max(gaps)),
        "series_vs_direct": float(max(series_gaps)) if series_gaps else None,
        "series_modes_skipped": skipped,
    }

    csv_files = {
        "trajectories.csv": (traj_header, traj_rows),
        "deficiency.csv": (["t", "deficiency"], defic_rows),
    }
    if refine:
        # The reference is the Richardson extrapolation of the two finest
        # grids; a plain finest-grid reference would leave its own O(dt^2)
        # bias in the error column and skew the ratios away from 4.
        w8 = _solve_trajectories(config, 8 * config.steps)
        w4 = _solve_trajectories(config, 4 * config.steps)
        reference = (4.0 * w8[:, ::2] - w4) / 3.0  # lives on the 4x nodes
        conv_rows = []
        prev_err = None
        for mult in (1, 2, 4):
            steps = mult * config.steps
            w_coarse = w4 if mult == 4 else _solve_trajectories(config, steps)
            err = float(np.max(np.abs(w_coarse - reference[:, :: 4 // mult])))
            ratio = float("nan") if prev_err is None else prev_err / err
            conv_rows.append((steps, config.horizon / steps, err, ratio))
            prev_err = err
        csv_files["convergence.csv"] = (
            ["steps", "dt", "sup_error", "ratio"],
            conv_rows,
        )

    _write_outputs(
        Path(out_dir), config.echo(), csv_files, {"discrepancy.json": discrepancy}
    )
    return discrepancy


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def cmd_moment(config: ExperimentConfig, out_dir, refine: bool = False) -> dict:
    """Constraint targets d_n, their rescaled asymptotics, and the JSON dump
    of the assembled end-state constraint family."""
    grid = TimeGrid(config.horizon, config.steps)
    rt = resolvent_of(config.kernel, grid)

    if config.scope == "auto":
        lowest = first_positive_index(rt.gain)
        search = dirichlet_modes_1d(lowest + SCOPE_SEARCH_WIDTH - 1, rt.gain)
        start = scope_threshold(search[lowest - 1 :], rt)
    else:
        start = int(config.scope)
    window = dirichlet_modes_1d(start + config.modes - 1, rt.gain)[start - 1 :]

    problem = build_moment_problem(window, rt, config.initial, start=start)
    record = moment_problem_record(problem, grid)
    report = asymptotic_table(window, rt)

    rows = []
    for mode, target, ratio, resid in zip(
        problem.modes, problem.targets, report.ratios, report.residuals
    ):
        rows.append(
            (
                mode.index,
                mode.shifted_rate,
                target,
                ratio,
                resid,
                abs(resid) * mode.shifted_rate,
            )
        )
    header = ["n", "mu2", "d_n", "ratio", "residual", "weighted_residual"]

    summary = {
        "regime": report.regime,
        "end_value": report.end_value,
        "limit": -report.end_value + 0.0,  # +0.0 keeps the memoryless case from printing -0.0
        "sup_weighted_residual": report.sup_weighted_residual,
        "scope_start": start,
    }
    _write_outputs(
        Path(out_dir),
        config.echo(),
        {"asymptotics.csv": (header, rows)},
        {"moments.json": record, "moment_summary.json": summary},
    )
    return summary


# ---------------------------------------------------------------------------
# biorth
# ---------------------------------------------------------------------------


def cmd_biorth(config: ExperimentConfig, out_dir, refine: bool = False) -> dict:
    """Minimal biorthogonal norms: closed-form growth law over the full
    family, an extended-precision Gram verification block, an orthonormal
    sanity control, and the finite-horizon domination check."""
    gain = config.kernel.value_at_zero
    ns = np.arange(1, config.biorth_family + 1)
    mu2 = (ns * math.pi) ** 2 - gain
    keep = mu2 > 0
    ns, mu2 = ns[keep], mu2[keep]
    lo, hi = config.fit_window
    if lo < ns.min():
        raise ConfigError(
            "biorth.fit_window",
            f"window start {lo} has a nonpositive rate for this kernel "
            f"(first usable mode is {int(ns.min())})",
        )

    closed_logs = 0.5 * cauchy_inverse_log_diag(mu2)
    in_window = (ns >= lo) & (ns <= hi)
    fit = fit_log_growth(ns[in_window], closed_logs[in_window])

    # The inverse-Gram diagonal depends on the whole family (adding members
    # only raises the minimal norms), so every comparison below pairs blocks
    # of the SAME subfamily size; the closed form is re-evaluated on the
    # verification subfamily rather than sliced out of the full-family law.
    verify = min(config.verify_modes, len(ns))
    report = min_norm_biorth(gram(mu2[:verify], None, config.precision))
    closed_verify = 0.5 * cauchy_inverse_log_diag(mu2[:verify])
    gram_vs_closed = float(
        np.max(np.abs(np.array(report.log_norms) - closed_verify))
    )

    sanity_grid = TimeGrid(config.horizon, min(config.steps, 400))
    sanity_report = min_norm_biorth(
        orthonormal_family_gram(16, sanity_grid, config.seed, config.precision)
    )
    sanity_slope = growth_fit(sanity_report).slope

    k = min(8, verify)
    finite = min_norm_biorth(gram(mu2[:k], config.horizon, config.precision))
    infinite_k = min_norm_biorth(gram(mu2[:k], None, config.precision))
    dominates = bool(
        np.all(np.array(finite.log_norms) >= np.array(infinite_k.log_norms) - 1e-9)
    )

    biorth_rows = list(
        zip(ns[:verify], report.norms, report.log_norms, report.residuals)
    )
    growth_rows = list(zip(ns, mu2, closed_logs))

    summary = {
        "slope": fit.slope,
        "fit_window": [lo, hi],
        "fit_rms": fit.residual,
        "gram_vs_closed_form_log_diff": gram_vs_closed,
        "sanity_slope": sanity_slope,
        "finite_horizon_dominates": dominates,
        "precision_used": report.precision_used,
        "residual": report.residual,
        "family": int(config.biorth_family),
        "verify_modes": int(verify),
    }
    _write_outputs(
        Path(out_dir),
        config.echo(),
        {
            "biorth.csv": (["n", "norm", "log_norm", "residual"], biorth_rows),
            "growth_law.csv": (["n", "mu2", "log_norm"], growth_rows),
        },
        {"biorth_summary.json": summary},
    )
    return summary


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------


def cmd_control(config: ExperimentConfig, out_dir, refine: bool = False) -> dict:
    """Minimal-norm control sweep: memory vs memoryless, with the verdict."""
    kernel = config.kernel
    if not isinstance(kernel, ConstantKernel) or kernel.value <= 0:
        raise ConfigError(
            "kernel",
            "the control contrast needs a constant kernel with a positive "
            'value (type "constant"); the memoryless side is built in',
        )
    counts = tuple(range(1, config.control_active + 1))
    memory = control_norm_sweep(
        config.control_family,
        counts,
        config.horizon,
        kernel.value,
        config.initial,
        config.precision,
    )
    baseline = control_norm_sweep(
        config.control_family,
        counts,
        config.horizon,
        0.0,
        config.initial,
        config.precision,
    )

    rows = list(
        zip(
            counts,
            baseline.norms,
            baseline.log_norms,
            memory.norms,
            memory.log_norms,
        )
    )
    header = [
        "n_active",
        "norm_memoryless",
        "log_norm_memoryless",
        "norm_memory",
        "log_norm_memory",
    ]
    verdict = {
        "memoryless_bounded": baseline.tail_ratio <= 2.0,
        "memory_blowup_slope": memory.slope,
        "memory_monotone": memory.monotone,
        "memoryless_tail_ratio": baseline.tail_ratio,
        "memoryless_slope": baseline.slope,
        "memory_constant": float(kernel.value),
        "family": int(config.control_family),
        "precision_used": max(memory.precision_used, baseline.precision_used),
        "residual_memory": memory.residual,
        "residual_memoryless": baseline.residual,
    }
    _write_outputs(
        Path(out_dir),
        config.echo(),
        {"control_sweep.csv": (header, rows)},
        {"verdict.json": verdict},
    )
    return verdict
