"""Command implementations behind the CLI: each computes its files, and
writes none.

A command validates what it needs, runs the full computation, and returns
its files as one dict of file name -> payload: `(header, rows)` for a `.csv`
file, rows being a 2-D float array for a long table and a list of row tuples
for a short one, and the record itself for a `.json` file. The CLI hands
that dict to `output.write_outputs`, the one write phase, so a run whose
computation fails leaves no output directory. All work happens on the
calling thread.

`simulate` solves a grid's modes in one place, `_solve_trajectories`, for
the main grid and each refinement grid: the modes' kernels and right-hand
sides are the rows of two stacks, each filled by one stacked product
quadrature, and one stacked Volterra solve (`algebra.volterra_solve_stack`)
returns every trajectory. `_cross_check` then checks every mode of the main
grid against the resolvent representation and the series route, and refuses
the run (NumericalError) where the solve and the representation part by more
than the round-off of the data. Its direct mode resolvents are a second
stacked solve, h = z - z*h on the first solve's z, never mixed with it, and
the representation w = k - h*k reads the rows of h and of the first solve's
k (`dynamics.explicit_stack`), so no k is built twice. It settles each
positive-rate mode's series term count once and hands the counts to one
stacked series over the shared powers of q'. A mode whose series cannot
converge within SERIES_MAX_TERMS is listed with its reason, and the other
modes are still checked. `moment` reads each end bracket off the rows of
stacks (`moments.end_brackets`), in its scope search and its window alike.
A stacked call runs all its rows together, with as many rows per FFT call as
fit in one bounded transform, and gives each row the bits of a call for that
row alone.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import volterra_solve_stack
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
from .errors import ConfigError, NumericalError
from .grids import SampledFunction, TimeGrid
from .kernels import ConstantKernel
from .modes import dirichlet_modes_1d, first_positive_index
from .moments import (
    asymptotic_table,
    build_moment_problem,
    scope_threshold,
)
from .resolvents import (
    SERIES_TOL,
    mode_resolvent_direct,  # noqa: F401  (the benchmark's tracer self-test calls it here)
    mode_resolvent_series_stack,
    resolvent_of,
    series_terms,
)
from .dynamics import explicit_stack, mode_equations


def _per_mode(fn, items):
    """Map fn over per-mode work items, in order, on the calling thread.

    The benchmark's tracer self-test (perfbench/test_checks.py) calls this
    helper by name.
    """
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def cmd_resolvent(config: ExperimentConfig) -> dict:
    """Tabulate the kernel's resolvent and its derivative, against the
    closed-form oracle when the kernel family has one.

    Raises NumericalError, before any solve, when that closed form is not
    finite on the grid: it is the exact resolvent, so the true resolvent
    leaves double range there and no finite solve on the grid is right.
    """
    grid = TimeGrid(config.horizon, config.steps)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        oracle = config.kernel.closed_form_resolvent(grid.nodes)
    if oracle is not None and not np.all(np.isfinite(oracle)):
        t = grid.nodes[np.argmin(np.isfinite(oracle))]
        raise NumericalError(
            f"the kernel's exact resolvent leaves double range at t = {t:.6g}, "
            "so no solve on this grid is finite and right; shorten the horizon"
        )
    rt = resolvent_of(config.kernel, grid)
    kernel_vals = config.kernel(grid.nodes)

    header = ["t", "kernel", "resolvent", "resolvent_deriv"]
    columns = [grid.nodes, kernel_vals, rt.resolvent.values, rt.resolvent_deriv.values]
    summary = {
        "gain": rt.gain,
        "identity_residual": rt.identity_residual(),
        "end_value": rt.end_value(),
        "oracle_sup_error": None,
    }
    if oracle is not None:
        err = np.abs(rt.resolvent.values - oracle)
        summary["oracle_sup_error"] = float(err.max())
        header += ["oracle", "abs_error"]
        columns += [oracle, err]
    return {
        "resolvent.csv": (header, np.column_stack(columns)),
        "resolvent_summary.json": summary,
    }


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _solve_trajectories(config: ExperimentConfig, steps: int) -> tuple:
    """The resolvent triple, the modes, their kernels z and right-hand sides
    k, and every mode's Volterra-route free trajectory on a grid of `steps`
    cells: the one place a grid's modes are solved, for the main grid and
    each refinement grid alike.

    The kernels z and right-hand sides k of all modes are two (modes, size)
    stacks, and one stacked solve returns the trajectories as the rows of a
    third.
    """
    grid = TimeGrid(config.horizon, steps)
    rt = resolvent_of(config.kernel, grid)
    modes = dirichlet_modes_1d(config.modes, rt.gain)
    xis = config.initial.values(config.modes)
    z, k = mode_equations(modes, rt, xis, SampledFunction.zeros(grid))
    w = volterra_solve_stack(z, k, grid.dt)
    return rt, modes, z, k, w


def _convergence_rows(config: ExperimentConfig, w: np.ndarray) -> list:
    """Grid-refinement table of the trajectories `w` of the main grid.

    The reference is the Richardson extrapolation of the two finest grids;
    a plain finest-grid reference would leave its own O(dt^2) bias in the
    error column and skew the ratios away from 4. The 1x row reuses the
    trajectories the main path already solved.
    """
    w8, w4, w2 = (_solve_trajectories(config, m * config.steps)[4] for m in (8, 4, 2))
    reference = (4.0 * w8[:, ::2] - w4) / 3.0  # lives on the 4x nodes
    rows = []
    prev_err = None
    for mult, w_coarse in ((1, w), (2, w2), (4, w4)):
        steps = mult * config.steps
        err = float(np.max(np.abs(w_coarse - reference[:, :: 4 // mult])))
        # nan where there is no coarser row, or no error to divide by
        ratio = float("nan") if prev_err is None or err == 0.0 else prev_err / err
        rows.append((steps, config.horizon / steps, err, ratio))
        prev_err = err
    return rows


# The Volterra solve and the representation w = k - h*k solve one discrete
# equation, so they part only by the round-off of its data: at most 8.7e-14
# of max(|k|, |w|) per mode on the shipped configs, on 60 random exp_sum
# kernels (crossover ones too) and at up to 60,000 steps. A larger share
# means a route has lost its digits: constant -100 at T = 0.5 to 2 reads
# from 1.4e-5 (mode 1, T = 0.5) up, with trajectories off the exact modes
# by 1e3 to 1e143 relative, where every rate is positive and nothing else
# warns.
ROUTE_GAP_TOL = 1e-10


def _cross_check(rt, modes, z, k, w) -> dict:
    """`discrepancy.json`: every mode's trajectory in `w` against the
    resolvent representation w = k - h*k on the solve's right-hand sides
    `k`, and its direct resolvent against the series route. The direct
    resolvents h = z - z*h are one stacked solve on the solve's kernels
    `z`, and the series of all positive-rate modes one stacked series, at
    the term counts settled here.

    Raises NumericalError if a mode's two routes part by more than
    ROUTE_GAP_TOL of max(|k|, |w|), the larger of its right-hand side's
    size and its trajectory's: such trajectories are not written.
    """
    h = volterra_solve_stack(z, z, rt.grid.dt)
    rates = [mode.shifted_rate for mode in modes]
    gaps = _per_mode(
        lambda gap: float(np.max(np.abs(gap))), w - explicit_stack(rates, h, k, rt.grid)
    )
    for mode, mode_gap, k_mode, w_mode in zip(modes, gaps, k, w):
        scale = max(float(np.max(np.abs(k_mode))), float(np.max(np.abs(w_mode))))
        if not mode_gap <= ROUTE_GAP_TOL * scale:  # a NaN gap is refused too
            raise NumericalError(
                f"mode {mode.index}: the Volterra solve and the explicit route "
                f"differ by {mode_gap:.3g} on data of size {scale:.3g}, beyond "
                f"the {ROUTE_GAP_TOL:g} share that round-off reaches; the "
                "trajectories are not trusted"
            )
    # The series route only cross-checks the direct one: a mode whose series
    # cannot converge, or whose stack fails, is listed unchecked, not the
    # run failed.
    skipped, reasons, terms = [], {}, {}  # terms: mode position -> its count
    for i, mode in enumerate(modes):
        if mode.shifted_rate <= 0:
            skipped.append(mode.index)
            continue
        try:
            terms[i] = series_terms(rt, mode.shifted_rate, SERIES_TOL)
        except NumericalError as exc:
            reasons[mode.index] = str(exc)
    series_gaps = []
    if terms:
        try:
            series_rates = [rates[i] for i in terms]
            h_series = mode_resolvent_series_stack(rt, series_rates, list(terms.values()))
            series_gaps = [float(np.max(np.abs(hs - h[i]))) for i, hs in zip(terms, h_series)]
        except NumericalError as exc:
            reasons.update((modes[i].index, str(exc)) for i in terms)

    discrepancy = {
        "solve_vs_explicit": float(max(gaps)),
        "series_vs_direct": float(max(series_gaps)) if series_gaps else None,
        "series_modes_skipped": skipped,
    }
    if reasons:  # only then, so runs whose series all converge keep their bytes
        discrepancy["series_modes_failed"] = [
            {"mode": n, "reason": reason} for n, reason in sorted(reasons.items())
        ]
    return discrepancy


def cmd_simulate(config: ExperimentConfig, refine: bool = False) -> dict:
    """Free modal trajectories, the dual-representation gap, and the
    deficiency time series; optionally a grid-refinement table."""
    rt, modes, z, k, w = _solve_trajectories(config, config.steps)  # w: (modes, size)
    discrepancy = _cross_check(rt, modes, z, k, w)
    del z, k  # not held through the refinement solves, which set the peak memory
    conv_rows = _convergence_rows(config, w) if refine else None

    # The tables are built only after the refinement grids, whose solves
    # set the peak memory.
    lam2 = np.array([m.eigenvalue for m in modes])
    scaled = w / lam2[:, None]
    # sqrt(sum scaled^2) per sample, each column scaled by a power of two so
    # its largest entry lies in [1/2, 1): the squares cannot overflow where
    # the trajectories are finite, and the scaling is exact, so the result
    # keeps its bits wherever the plain formula neither overflows nor underflows
    _, k = np.frexp(np.max(np.abs(scaled), axis=0))
    deficiency = np.ldexp(np.sqrt(np.sum(np.ldexp(scaled, -k) ** 2, axis=0)), k)
    files = {
        "trajectories.csv": (
            ["t"] + [f"w_{m.index}" for m in modes],
            np.column_stack([rt.grid.nodes, *w]),
        ),
        "deficiency.csv": (["t", "deficiency"], np.column_stack([rt.grid.nodes, deficiency])),
        "discrepancy.json": discrepancy,
    }
    if conv_rows is not None:
        files["convergence.csv"] = (["steps", "dt", "sup_error", "ratio"], conv_rows)
    return files


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def cmd_moment(config: ExperimentConfig) -> dict:
    """Constraint targets d_n, their rescaled asymptotics, and the JSON dump
    of the assembled end-state constraint family."""
    first = first_positive_index(config.kernel.value_at_zero)
    if config.scope != "auto" and config.scope < first:  # before any solve
        raise ConfigError(
            "scope",
            f"start {config.scope} has a nonpositive rate for this kernel "
            f"(first usable mode is {first})",
        )
    rt = resolvent_of(config.kernel, TimeGrid(config.horizon, config.steps))

    start = scope_threshold(rt) if config.scope == "auto" else int(config.scope)
    window = dirichlet_modes_1d(config.modes, rt.gain, first=start)

    report = asymptotic_table(window, rt)
    record = build_moment_problem(window, rt, config.initial, report.brackets)

    rows = [
        (m["n"], m["mu2"], m["d_n"], ratio, resid, abs(resid) * m["mu2"])
        for m, ratio, resid in zip(record["modes"], report.ratios, report.residuals)
    ]
    header = ["n", "mu2", "d_n", "ratio", "residual", "weighted_residual"]

    summary = {
        "regime": report.regime,
        "end_value": report.end_value,
        "limit": -report.end_value + 0.0,  # +0.0 keeps the memoryless case from printing -0.0
        "sup_weighted_residual": report.sup_weighted_residual,
        "scope_start": start,
    }
    return {
        "asymptotics.csv": (header, rows),
        "moments.json": record,
        "moment_summary.json": summary,
    }


# ---------------------------------------------------------------------------
# biorth
# ---------------------------------------------------------------------------


def cmd_biorth(config: ExperimentConfig) -> dict:
    """Minimal biorthogonal norms: closed-form growth law over the full
    family, an extended-precision Gram verification block, an orthonormal
    sanity control, and the finite-horizon domination check."""
    gain = config.kernel.value_at_zero
    first = first_positive_index(gain)
    if first > config.biorth_family:  # before np.arange, which a huge first overflows
        raise ConfigError(
            "biorth.family",
            f"no mode up to {config.biorth_family} has a positive rate for this "
            f"kernel (first usable mode is {first})",
        )
    ns = np.arange(first, config.biorth_family + 1)
    mu2 = (ns * math.pi) ** 2 - gain
    lo, hi = config.fit_window
    if lo < first:
        raise ConfigError(
            "biorth.fit_window",
            f"window start {lo} has a nonpositive rate for this kernel "
            f"(first usable mode is {first})",
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
    return {
        "biorth.csv": (["n", "norm", "log_norm", "residual"], biorth_rows),
        "growth_law.csv": (["n", "mu2", "log_norm"], growth_rows),
        "biorth_summary.json": summary,
    }


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------


def cmd_control(config: ExperimentConfig) -> dict:
    """Minimal-norm control sweep: memory vs memoryless, with the verdict."""
    kernel = config.kernel
    if not isinstance(kernel, ConstantKernel) or kernel.value <= 0:
        raise ConfigError(
            "kernel",
            "the control contrast needs a constant kernel with a positive "
            'value (type "constant"); the memoryless side is built in',
        )
    if config.initial.value(1) == 0.0:
        raise ConfigError(
            "initial",
            "mode 1 starts at 0, so steering it alone takes no control (its "
            "squared norm is exactly 0); give mode 1 a nonzero initial value",
        )
    counts = tuple(range(1, config.control_active + 1))
    memory, baseline = (
        control_norm_sweep(
            config.control_family, counts, config.horizon, c, config.initial, config.precision
        )
        for c in (kernel.value, 0.0)
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
    return {"control_sweep.csv": (header, rows), "verdict.json": verdict}
