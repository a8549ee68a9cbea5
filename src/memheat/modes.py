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

from .grids import SampledFunction, require_same_grid


@dataclass(frozen=True)
class Mode:
    """Eigendata of one Dirichlet mode, shifted by the kernel's t=0 value."""

    index: int
    eigenvalue: float  # n^2 pi^2
    shifted_rate: float  # eigenvalue minus the kernel value at zero
    trace_left: float  # outward-normal derivative of the eigenfunction at x=0
    trace_right: float  # same at x=1


def dirichlet_modes_1d(count: int, gain: float, first: int = 1) -> tuple:
    """`count` modes from index `first` on, with rates shifted by `gain` (the
    kernel at t=0)."""
    if count < 1:
        raise ValueError("need at least one mode")
    modes = []
    for n in range(first, first + count):
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
    """Smallest mode index whose shifted rate is positive.

    The answer is floor(sqrt(gain)/pi) + 1 up to one step of rounding either
    way, so at most two indices are tested; a count from n = 1 would take
    sqrt(gain)/pi steps.
    """
    if gain < math.pi**2:
        return 1
    n = int(math.sqrt(gain) / math.pi)
    for m in (n, n + 1):
        if (m * math.pi) ** 2 > gain:
            return m
    return n + 2


@dataclass(frozen=True)
class BoundaryControl:
    """Dirichlet boundary data on the two endpoints of the interval.

    An inactive endpoint holds identically-zero samples.
    """

    left: SampledFunction
    right: SampledFunction

    def __post_init__(self):
        require_same_grid(self.left, self.right)

    @classmethod
    def at_right(cls, f: SampledFunction) -> "BoundaryControl":
        """Data f at the right endpoint, the left one held at zero."""
        return cls(SampledFunction.zeros(f.grid), f)


def trace_pairing(mode: Mode, control: BoundaryControl) -> SampledFunction:
    """Boundary integral of the control against the mode's normal trace.

    In 1D the integral over the two-point boundary is the weighted sum
    trace_left * left + trace_right * right of the endpoint signals.
    """
    return mode.trace_left * control.left + mode.trace_right * control.right
