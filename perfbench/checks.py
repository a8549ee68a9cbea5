"""Correctness checks on one command's output directory.

Each check restates an invariant of the paper at the tolerance the
acceptance gate states for it. A command run counts as failed when its exit
code is not 0, when any check below reports a problem, or when its files
differ in bytes from the first pass of the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SOLVE_VS_EXPLICIT_MAX = 1e-8  # C3
CONVERGENCE_RATIO_BAND = (3.9, 4.1)  # second order: error ratio 4 per halving
SUP_WEIGHTED_RESIDUAL_MAX = 1.0  # C5
RESIDUAL_GATE = 1e-20  # C8, the Gram solves' own gate
GRAM_VS_CLOSED_FORM_MAX = 1e-12  # C8
SLOPE_REL_TOL = 0.05  # C6: growth slope within 5% of pi
BLOWUP_SLOPE_MIN = 1.0  # C7


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _simulate(out: Path) -> list:
    problems = []
    gap = _json(out, "discrepancy.json")["solve_vs_explicit"]
    if not gap <= SOLVE_VS_EXPLICIT_MAX:
        problems.append(f"solve_vs_explicit {gap} above {SOLVE_VS_EXPLICIT_MAX:g}")
    conv = out / "convergence.csv"
    if conv.exists():
        lo, hi = CONVERGENCE_RATIO_BAND
        with conv.open() as fh:
            ratios = [float(row["ratio"]) for row in csv.DictReader(fh)][1:]
        if not ratios:
            problems.append("convergence.csv has no ratios")
        for r in ratios:
            if not lo <= r <= hi:
                problems.append(f"convergence ratio {r} outside [{lo}, {hi}]")
    return problems


def _moment(out: Path) -> list:
    resid = _json(out, "moment_summary.json")["sup_weighted_residual"]
    if not resid <= SUP_WEIGHTED_RESIDUAL_MAX:
        return [f"sup_weighted_residual {resid} above {SUP_WEIGHTED_RESIDUAL_MAX:g}"]
    return []


def _biorth(out: Path) -> list:
    s = _json(out, "biorth_summary.json")
    problems = []
    if not s["residual"] < RESIDUAL_GATE:
        problems.append(f"residual {s['residual']} not below {RESIDUAL_GATE:g}")
    diff = s["gram_vs_closed_form_log_diff"]
    if not diff <= GRAM_VS_CLOSED_FORM_MAX:
        problems.append(f"gram_vs_closed_form_log_diff {diff} above {GRAM_VS_CLOSED_FORM_MAX:g}")
    if not abs(s["slope"] - math.pi) <= SLOPE_REL_TOL * math.pi:
        problems.append(f"slope {s['slope']} not within {SLOPE_REL_TOL:.0%} of pi")
    if s["finite_horizon_dominates"] is not True:
        problems.append("finite_horizon_dominates is not true")
    return problems


def _control(out: Path) -> list:
    v = _json(out, "verdict.json")
    problems = []
    for key in ("residual_memory", "residual_memoryless"):
        if not v[key] < RESIDUAL_GATE:
            problems.append(f"{key} {v[key]} not below {RESIDUAL_GATE:g}")
    for key in ("memoryless_bounded", "memory_monotone"):
        if v[key] is not True:
            problems.append(f"{key} is not true")
    if not v["memory_blowup_slope"] > BLOWUP_SLOPE_MIN:
        problems.append(f"memory_blowup_slope {v['memory_blowup_slope']} not above {BLOWUP_SLOPE_MIN:g}")
    return problems


CHECKS = {
    "simulate": _simulate,
    "moment": _moment,
    "biorth": _biorth,
    "control": _control,
}


def check(command: str, out: Path) -> list:
    """Problems found in a command's outputs; empty when every invariant holds."""
    out = Path(out)
    if not (out / "config_echo.json").is_file():
        return ["config_echo.json missing"]
    try:
        return CHECKS[command](out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> dict:
    """SHA-256 of every file in an output directory, keyed by file name."""
    out = Path(out)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }
