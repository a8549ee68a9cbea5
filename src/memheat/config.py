"""Experiment configuration: one JSON file, validated before any work starts.

Every run is reproducible from its config alone, so validation is strict:
unknown keys are rejected (they are usually typos silently changing nothing),
every value is read by the shared readers in `errors`, which range-check it
and name the offending key path in the error, and
the fully resolved configuration (defaults materialized, overrides applied)
is echoed into the output directory next to the data files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .biorth import MAX_PRECISION_BITS
from .errors import ConfigError, read_int, read_list, read_number, read_record
from .kernels import MemoryKernel, kernel_from_config
from .moments import InitialData, initial_data_from_config
from .resolvents import SERIES_TOL

_TOP_LEVEL_KEYS = {
    "kernel",
    "horizon",
    "steps",
    "modes",
    "precision",
    "seed",
    "series_tol",
    "initial",
    "scope",
    "control",
    "biorth",
}

_CONTROL_KEYS = {"family", "active"}
_BIORTH_KEYS = {"family", "fit_window", "verify_modes"}

_DEFAULT_KERNEL = {"type": "constant", "value": 1.0}

MIN_STEPS = 100
# The grid, the blocked Volterra solves and the trajectories take memory
# linear in steps, and `simulate --refine` solves 8 * steps too. Measured
# process peaks (maximum resident set) at 100,000 steps (Python 3.11,
# numpy 2.4, 2-core Xeon): `resolvent` 103 MB, `moment` with 10 modes
# 61 MB, `simulate --refine` 147 MB with 1 mode, 157 MB with 2 modes,
# plus about 15 MB per further mode; of that, the kernel spectra a
# 2-row 800,001-node solve shares between spans of one length take about
# 17 MB, and those of a one-row solve about 8 MB. A larger value fails in
# the allocation.
MAX_STEPS = 100_000
# Time grows linearly in modes, the stacks' rows. At 1,000 modes and 1,000
# steps on a 2-core Xeon VM: `simulate` 2.2-3.0 s and 142 MB, `moment` 0.5 s
# and 53 MB (`moment` with 10 modes at 100,000 steps: 0.6 s and 62 MB).
MAX_MODES = 1000
# The Cauchy closed form runs one row at a time. Measured `biorth` with 20
# verified modes (Python 3.11, a 2-core Intel Xeon VM whose speed drifts up
# to 2x): 41-42 MB and 0.07-0.10 s at 1,000 and at 2,000; 42 MB, 0.21 s at
# 4,000.
MAX_BIORTH_FAMILY = 4000
# Two mpmath Gram solves: an O(family^3) factor, then only the `active`
# inverse columns a sweep reads. Measured `control` at horizon 1, constant 1
# (the same host): 0.3 s at 60, active 12 (both sweeps at 256 bits); at 150,
# 4.6 s with active 12 (512 bits) and 30 s with active 150 (608 bits); at
# 200, 23 s with active 12 and 69 s with active 200, where 512 bits cannot
# factor the Gram and both sweeps double to the top rung (1024 bits). At 1024
# bits the residual of all family columns rises about a decade per member
# (6e-158 at 150, 1e-105 at 200): near 280 it would miss the gate.
MAX_CONTROL_FAMILY = 200
# `moment` builds only its window, so time does not grow with scope; the
# rates do. (n pi)^2 must stay a double, and so must rate * steps in the cell
# moments. Measured `moment`: 10^151 runs clean at 100 and 100,000 steps (1.2 s
# with 1,000 modes at 100,000 steps); 10^152 at 100,000 steps and 10^153 at
# 1,000 steps exit 0 after numpy overflow warnings; 10^154 overflows (n pi)^2.
MAX_SCOPE = 10**151
MIN_PRECISION = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run parameters shared by every subcommand."""

    kernel: MemoryKernel
    horizon: float = 1.0
    steps: int = 1000
    modes: int = 12
    precision: int = 256
    seed: int = 0
    series_tol: float = SERIES_TOL
    initial: InitialData = InitialData.inverse_index()
    scope: object = "auto"  # "auto" or an explicit first mode index
    control_family: int = 40
    control_active: int = 12
    biorth_family: int = 1000
    fit_window: tuple = (10, 30)
    verify_modes: int = 20

    def echo(self) -> dict:
        """Every resolved field, in the same shape the config file uses."""
        return {
            "kernel": self.kernel.to_config(),
            "horizon": self.horizon,
            "steps": self.steps,
            "modes": self.modes,
            "precision": self.precision,
            "seed": self.seed,
            "series_tol": self.series_tol,
            "initial": self.initial.to_config(),
            "scope": self.scope,
            "control": {"family": self.control_family, "active": self.control_active},
            "biorth": {
                "family": self.biorth_family,
                "fit_window": list(self.fit_window),
                "verify_modes": self.verify_modes,
            },
        }


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config tree; raises ConfigError with the key path."""
    data = read_record(data, "", _TOP_LEVEL_KEYS)
    d = ExperimentConfig  # the field defaults, read off the class
    kernel = kernel_from_config(data.get("kernel", _DEFAULT_KERNEL))
    horizon = read_number(data, "horizon", "", positive=True, default=d.horizon)
    steps = read_int(
        data, "steps", "", minimum=MIN_STEPS, maximum=MAX_STEPS, default=d.steps
    )
    modes = read_int(data, "modes", "", minimum=1, maximum=MAX_MODES, default=d.modes)
    precision = read_int(
        data, "precision", "", minimum=MIN_PRECISION, maximum=MAX_PRECISION_BITS, default=d.precision
    )
    seed = read_int(data, "seed", "", minimum=0, default=d.seed)
    series_tol = read_number(data, "series_tol", "", positive=True, default=d.series_tol)
    initial = initial_data_from_config(data.get("initial", d.initial.to_config()))
    scope = data.get("scope", d.scope)
    if scope != "auto":
        scope = read_int(data, "scope", "", minimum=1, maximum=MAX_SCOPE)

    control = read_record(data.get("control", {}), "control", _CONTROL_KEYS)
    control_family = read_int(
        control, "family", "control", minimum=1, maximum=MAX_CONTROL_FAMILY, default=d.control_family
    )
    control_active = read_int(control, "active", "control", minimum=1, default=d.control_active)
    if control_active > control_family:
        raise ConfigError(
            "control.active", "cannot exceed the family size being held at zero"
        )

    biorth = read_record(data.get("biorth", {}), "biorth", _BIORTH_KEYS)
    biorth_family = read_int(
        biorth, "family", "biorth", minimum=8, maximum=MAX_BIORTH_FAMILY, default=d.biorth_family
    )
    verify_modes = read_int(
        biorth, "verify_modes", "biorth", minimum=2, maximum=64, default=d.verify_modes
    )
    window = read_list(biorth, "fit_window", "biorth", read_int, default=d.fit_window)
    if len(window) != 2:
        raise ConfigError("biorth.fit_window", "expected a pair of integers [lo, hi]")
    lo, hi = window
    if lo < 1 or hi <= lo or hi - lo < 7:
        raise ConfigError(
            "biorth.fit_window", "need 1 <= lo < hi with at least eight indices"
        )
    if hi > biorth_family:
        raise ConfigError("biorth.fit_window", "window exceeds the family size")

    return ExperimentConfig(
        kernel=kernel,
        horizon=horizon,
        steps=steps,
        modes=modes,
        precision=precision,
        seed=seed,
        series_tol=series_tol,
        initial=initial,
        scope=scope,
        control_family=control_family,
        control_active=control_active,
        biorth_family=biorth_family,
        fit_window=(lo, hi),
        verify_modes=verify_modes,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(config: ExperimentConfig, modes=None, precision=None) -> ExperimentConfig:
    """Apply command-line overrides, re-running the range checks."""
    data = config.echo()
    if modes is not None:
        data["modes"] = modes
    if precision is not None:
        data["precision"] = precision
    return config_from_dict(data)
