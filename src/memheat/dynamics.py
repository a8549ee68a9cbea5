"""Per-mode evolution of the heat flow with memory.

Each Dirichlet mode coefficient satisfies a scalar Volterra equation driven
by the initial value and the boundary trace pairing:

    w + z*w = k,   k = (e0 - e0*q) xi - e0*g,

where e0(t) = e^{-mu2 t}, q is the kernel resolvent, z the mode kernel built
from the resolvent derivative, and g the boundary forcing. Two independent
solution routes are kept side by side: a marching Volterra solve, and the
explicit form w = k - h*k through the mode resolvent h. Their agreement is a
genuine invertibility check, so the two routes are never collapsed.

With no memory kernel the Volterra route degenerates, step by step, into the
plain heat semigroup formula; the tests pin that degeneration down to exact
equality of the discrete values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .algebra import convolve, convolve_exp, exp_profile, volterra_solve
from .grids import SampledFunction, require_same_grid
from .modes import Mode
from .resolvents import ResolventTriple, mode_kernel


@dataclass(frozen=True)
class ModalTrajectory:
    """One mode's coefficient path w_n(t), tagged with its eigendata."""

    mode: Mode
    initial: float
    w: SampledFunction

    def __post_init__(self):
        if self.w.values[0] != self.initial:
            raise ValueError("trajectory does not start at its initial value")


def modal_rhs(
    mode: Mode, rt: ResolventTriple, xi: float, g: SampledFunction
) -> SampledFunction:
    """Right-hand side k = (e0 - e0*q) xi - e0*g of the mode equation."""
    grid = require_same_grid(rt.resolvent, g)
    mu2 = mode.shifted_rate
    e0 = exp_profile(grid, mu2)
    k = xi * e0 - xi * convolve_exp(rt.resolvent, mu2) - convolve_exp(g, mu2)
    return k


def heat_mode(mode: Mode, xi: float, g: SampledFunction) -> ModalTrajectory:
    """Memoryless baseline: w(t) = e^{-lam2 t} xi - int e^{-lam2 (t-s)} g(s) ds."""
    grid = g.grid
    lam2 = mode.eigenvalue
    w = xi * exp_profile(grid, lam2) - convolve_exp(g, lam2)
    return ModalTrajectory(mode, xi, w)


def solve_mode(
    mode: Mode, rt: ResolventTriple, xi: float, g: SampledFunction
) -> ModalTrajectory:
    """Marching Volterra solve of the mode equation w + z*w = k."""
    if mode.shifted_rate <= 0:
        warnings.warn(
            f"mode {mode.index} has nonpositive shifted rate "
            f"{mode.shifted_rate:g}; the solve proceeds but the decay "
            "estimates behind the moment asymptotics do not apply",
            stacklevel=2,
        )
    k = modal_rhs(mode, rt, xi, g)
    z = mode_kernel(rt, mode.shifted_rate)
    w = volterra_solve(z, k)
    return ModalTrajectory(mode, xi, w)


def explicit_mode(
    mode: Mode,
    rt: ResolventTriple,
    h: SampledFunction,
    xi: float,
    g: SampledFunction,
) -> ModalTrajectory:
    """Closed-form route w = k - h*k through a precomputed mode resolvent h."""
    k = modal_rhs(mode, rt, xi, g)
    w = k - convolve(h, k)
    return ModalTrajectory(mode, xi, w)
