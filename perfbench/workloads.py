"""Seeded workload generation.

A workload is an ordered list of memheat commands. The seed draws only
values that leave the amount of work unchanged: initial-data values, the
shape of the two-term ``exp_sum`` kernel (its gain m(0) and slope m'(0) stay
fixed, so mode rates and series term counts do not move), and the biorth
sanity-control seed. Grid sizes, mode counts, family sizes and precision are
fixed per workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Relative band of the seeded perturbation of the 1/n initial data. The
# control sweep's first step (one steered mode to two) stays monotone only
# while (xi_2/xi_1) / (1/2) >= 0.70 at family 60 (0.73 at family 40); this
# band keeps that factor >= 0.9/1.1 = 0.82. Later steps grow by e^1.6 or more.
INITIAL_BAND = 0.1
INITIAL_VALUES = 16

# Two-term exp_sum kernel of the march workload. c1 is drawn, c2 = GAIN - c1
# and b2 is solved from SLOPE = b1 c1 + b2 c2, so m(0) and m'(0) are fixed.
EXP_SUM_C1 = (0.9, 1.1)
EXP_SUM_B1 = 1.0
EXP_SUM_GAIN = 1.5
EXP_SUM_SLOPE = 3.5


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the subcommand, its argv and its output directory."""

    name: str
    argv: tuple
    out: Path
    config: Path


def _initial(rng: random.Random) -> dict:
    values = [
        (1.0 + rng.uniform(-INITIAL_BAND, INITIAL_BAND)) / n
        for n in range(1, INITIAL_VALUES + 1)
    ]
    return {"rule": "explicit", "values": values}


def _exp_sum(rng: random.Random) -> dict:
    c1 = rng.uniform(*EXP_SUM_C1)
    c2 = EXP_SUM_GAIN - c1
    b2 = (EXP_SUM_SLOPE - EXP_SUM_B1 * c1) / c2
    return {
        "type": "exp_sum",
        "terms": [{"c": c1, "b": EXP_SUM_B1}, {"c": c2, "b": b2}],
    }


def _march(rng):
    # The Volterra march dominates (16000 finest steps); moment recomputes
    # mode resolvents for repeated rates. No mpmath runs.
    yield "simulate", {
        "kernel": _exp_sum(rng),
        "horizon": 1.0,
        "steps": 2000,
        "modes": 8,
        "initial": _initial(rng),
    }, ("--refine",)
    yield "moment", {
        "kernel": {"type": "constant", "value": 1.0},
        "horizon": 1.0,
        "steps": 8000,
        "modes": 12,
        "scope": "auto",
        "initial": _initial(rng),
    }, ()


def _gram(rng):
    # mpmath Gram solves dominate: family 60 is the smallest control family
    # whose ladder escalates 256 -> 512 bits. No Volterra march runs.
    # The kernel constant stays 1.0: the 256-bit residual sits near the gate
    # (3.5e-20 vs 1e-20), so another constant could flip the escalation.
    yield "control", {
        "kernel": {"type": "constant", "value": 1.0},
        "horizon": 1.0,
        "precision": 256,
        "initial": _initial(rng),
        "control": {"family": 60, "active": 12},
    }, ()
    yield "biorth", {
        "kernel": {"type": "constant", "value": 1.0},
        "horizon": 1.0,
        "precision": 256,
        "seed": rng.randrange(2**31),
        "biorth": {"family": 1000, "fit_window": [10, 30], "verify_modes": 60},
    }, ()


GENERATORS = {"march": _march, "gram": _gram}


def build(workload: str, seed: int, work_dir: Path) -> list:
    """Write the workload's configs under work_dir and return its commands."""
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    commands = []
    for i, (name, config, flags) in enumerate(GENERATORS[workload](rng)):
        config_path = work_dir / f"{i}_{name}.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        out = work_dir / f"{i}_{name}"
        argv = (name, "--config", str(config_path), "--out", str(out)) + flags
        commands.append(Command(name, argv, out, config_path))
    return commands
