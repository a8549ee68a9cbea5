"""Uniform time grids and real-valued functions sampled on them.

Everything downstream (convolution algebra, Volterra solvers, modal
dynamics) operates on these two types. Values are immutable after
construction, so results are safe to share and cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, NumericalError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` cells (steps+1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (isinstance(self.horizon, (int, float)) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (isinstance(self.steps, int) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def size(self) -> int:
        """Number of nodes, steps + 1."""
        return self.steps + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node times {0, dt, 2 dt, ..., horizon} as a read-only array."""
        t = np.linspace(0.0, self.horizon, self.steps + 1)
        t.flags.writeable = False
        return t


def require_same_grid(*fns: "SampledFunction") -> TimeGrid:
    """Return the common grid of the arguments or raise GridMismatchError."""
    grid = fns[0].grid
    for f in fns[1:]:
        if f.grid != grid:
            raise GridMismatchError(
                f"incompatible discretizations: {grid} vs {f.grid}; "
                "resample explicitly, there is no silent interpolation"
            )
    return grid


def check_finite(values: np.ndarray) -> None:
    """Raise NumericalError unless every sample is finite.

    Configs admit only finite numbers, so a non-finite sample is an overflow
    of the computation: exit 3, not a traceback.
    """
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            "samples must all be finite; a value overflowed double precision"
        )


@dataclass(frozen=True, eq=False)  # identity equality; ndarray == is elementwise
class SampledFunction:
    """Real values on the nodes of a TimeGrid. Immutable."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # defensive copy
        if v.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} samples for {self.grid}, got shape {v.shape}"
            )
        check_finite(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "SampledFunction":
        return cls(grid, fn(grid.nodes))

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "SampledFunction":
        return cls(grid, np.zeros(grid.size))

    def at_end(self) -> float:
        """Value at the final node (time = horizon)."""
        return float(self.values[-1])

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        grid = require_same_grid(self, other)
        return SampledFunction(grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        grid = require_same_grid(self, other)
        return SampledFunction(grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SampledFunction":
        return SampledFunction(self.grid, -self.values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))
