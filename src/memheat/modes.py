"""Dirichlet eigenpairs on the unit interval and boundary-trace data.

The eigenfunctions are sqrt(2) sin(n pi x) with eigenvalues n^2 pi^2. Each
mode carries the outward-normal derivative of its eigenfunction at the two
endpoints, which is how boundary data enters the projected dynamics. The
sign convention (outward normal: -d/dx at x = 0, +d/dx at x = 1) is pinned
down by a physical test, not by fiat: holding the right endpoint at 1 must
relax the memoryless flow to the steady profile u(x) = x, whose sine
coefficients are sqrt(2)(-1)^{n+1}/(n pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grids import SampledFunction, TimeGrid, require_same_grid


@dataclass(frozen=True)
class Mode:
    """Eigendata of one Dirichlet mode, shifted by the kernel's t=0 value."""

    index: int
    eigenvalue: float  # n^2 pi^2
    shifted_rate: float  # eigenvalue minus the kernel value at zero
    trace_left: float  # outward-normal derivative of the eigenfunction at x=0
    trace_right: float  # same at x=1


def dirichlet_modes_1d(count: int, gain: float) -> tuple:
    """First `count` modes with rates shifted by `gain` (the kernel at t=0)."""
    if count < 1:
        raise ValueError("need at least one mode")
    modes = []
    for n in range(1, count + 1):
        lam2 = (n * math.pi) ** 2
        trace = math.sqrt(2.0) * n * math.pi
        modes.append(
            Mode(
                index=n,
                eigenvalue=lam2,
                shifted_rate=lam2 - gain,
                trace_left=-trace,
                trace_right=trace * (-1) ** n,
            )
        )
    return tuple(modes)


def first_positive_index(gain: float) -> int:
    """Smallest mode index whose shifted rate is positive."""
    n = 1
    while (n * math.pi) ** 2 <= gain:
        n += 1
    return n


@dataclass(frozen=True)
class BoundaryControl:
    """Dirichlet boundary data on the two endpoints of the interval.

    Inactive endpoints hold identically-zero samples; the activity flags let
    callers skip work and make the intent explicit in configs.
    """

    left: SampledFunction
    right: SampledFunction
    active_left: bool
    active_right: bool

    def __post_init__(self):
        require_same_grid(self.left, self.right)
        if not self.active_left and self.left.sup_norm() != 0.0:
            raise ValueError("inactive left endpoint must carry zero samples")
        if not self.active_right and self.right.sup_norm() != 0.0:
            raise ValueError("inactive right endpoint must carry zero samples")

    @property
    def grid(self) -> TimeGrid:
        return self.left.grid

    @classmethod
    def none(cls, grid: TimeGrid) -> "BoundaryControl":
        z = SampledFunction.zeros(grid)
        return cls(z, z, active_left=False, active_right=False)

    @classmethod
    def at_left(cls, f: SampledFunction) -> "BoundaryControl":
        return cls(f, SampledFunction.zeros(f.grid), active_left=True, active_right=False)

    @classmethod
    def at_right(cls, f: SampledFunction) -> "BoundaryControl":
        return cls(SampledFunction.zeros(f.grid), f, active_left=False, active_right=True)


def trace_pairing(mode: Mode, control: BoundaryControl) -> SampledFunction:
    """Boundary integral of the control against the mode's normal trace.

    In 1D the integral over the two-point boundary is a weighted sum of the
    endpoint signals.
    """
    out = SampledFunction.zeros(control.grid)
    if control.active_left:
        out = out + mode.trace_left * control.left
    if control.active_right:
        out = out + mode.trace_right * control.right
    return out
