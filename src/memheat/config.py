"""Experiment configuration: one JSON file, validated before any work starts.

Every run is reproducible from its config alone, so validation is strict:
unknown keys are rejected (they are usually typos silently changing nothing),
every value is range-checked with the offending key path in the error, and
the fully resolved configuration (defaults materialized, overrides applied)
is echoed into the output directory next to the data files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, reject_unknown_keys
from .kernels import MemoryKernel, kernel_from_config
from .moments import InitialData, initial_data_from_config

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

MIN_STEPS = 100
MIN_PRECISION = 16
MAX_PRECISION = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run parameters shared by every subcommand."""

    kernel: MemoryKernel
    horizon: float = 1.0
    steps: int = 1000
    modes: int = 12
    precision: int = 256
    seed: int = 0
    series_tol: float = 1e-14
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


def _want_int(record, key, path, minimum=None, maximum=None):
    v = record.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}{key}", f"must be at least {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}{key}", f"must be at most {maximum}, got {v}")
    return v


def _want_number(record, key, path, positive=False):
    v = record.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{path}{key}", f"expected a number, got {v!r}")
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        raise ConfigError(f"{path}{key}", "must be finite")
    if positive and v <= 0:
        raise ConfigError(f"{path}{key}", f"must be positive, got {v}")
    return v


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config tree; raises ConfigError with the key path."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown key")

    defaults = ExperimentConfig(kernel=kernel_from_config({"type": "constant", "value": 1.0}))

    kernel = (
        kernel_from_config(data["kernel"]) if "kernel" in data else defaults.kernel
    )
    horizon = (
        _want_number(data, "horizon", "", positive=True)
        if "horizon" in data
        else defaults.horizon
    )
    steps = (
        _want_int(data, "steps", "", minimum=MIN_STEPS)
        if "steps" in data
        else defaults.steps
    )
    modes = _want_int(data, "modes", "", minimum=1) if "modes" in data else defaults.modes
    precision = (
        _want_int(data, "precision", "", minimum=MIN_PRECISION, maximum=MAX_PRECISION)
        if "precision" in data
        else defaults.precision
    )
    seed = _want_int(data, "seed", "", minimum=0) if "seed" in data else defaults.seed
    series_tol = (
        _want_number(data, "series_tol", "", positive=True)
        if "series_tol" in data
        else defaults.series_tol
    )
    initial = (
        initial_data_from_config(data["initial"]) if "initial" in data else defaults.initial
    )

    scope = data.get("scope", defaults.scope)
    if scope != "auto":
        if not isinstance(scope, int) or isinstance(scope, bool) or scope < 1:
            raise ConfigError("scope", f'expected "auto" or a positive integer, got {scope!r}')

    control_family = defaults.control_family
    control_active = defaults.control_active
    if "control" in data:
        rec = data["control"]
        if not isinstance(rec, dict):
            raise ConfigError("control", "expected a record")
        reject_unknown_keys(rec, _CONTROL_KEYS, "control")
        if "family" in rec:
            control_family = _want_int(rec, "family", "control.", minimum=1)
        if "active" in rec:
            control_active = _want_int(rec, "active", "control.", minimum=1)
    if control_active > control_family:
        raise ConfigError(
            "control.active", "cannot exceed the family size being held at zero"
        )

    biorth_family = defaults.biorth_family
    fit_window = defaults.fit_window
    verify_modes = defaults.verify_modes
    if "biorth" in data:
        rec = data["biorth"]
        if not isinstance(rec, dict):
            raise ConfigError("biorth", "expected a record")
        reject_unknown_keys(rec, _BIORTH_KEYS, "biorth")
        if "family" in rec:
            biorth_family = _want_int(rec, "family", "biorth.", minimum=8)
        if "verify_modes" in rec:
            verify_modes = _want_int(rec, "verify_modes", "biorth.", minimum=2, maximum=64)
        if "fit_window" in rec:
            win = rec["fit_window"]
            if (
                not isinstance(win, list)
                or len(win) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in win)
            ):
                raise ConfigError("biorth.fit_window", "expected a pair of integers [lo, hi]")
            fit_window = (win[0], win[1])
    lo, hi = fit_window
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
        fit_window=fit_window,
        verify_modes=verify_modes,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
