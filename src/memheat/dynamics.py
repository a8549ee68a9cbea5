"""Per-mode evolution of the heat flow with memory.

Each Dirichlet mode coefficient satisfies a scalar Volterra equation driven
by the initial value and the boundary trace pairing:

    w + z*w = k,   k = (e0 - e0*q) xi - e0*g,

where e0(t) = e^{-mu2 t}, q is the kernel resolvent, z the mode kernel built
from the resolvent derivative, and g the boundary forcing. Two independent
solution routes are kept side by side: a Volterra solve of w + z*w = k, and
the explicit form w = k - h*k through the mode resolvent h. Their agreement
is a genuine invertibility check, so the two routes are never collapsed.
They share the z and k builders (`mode_kernels`, `_rhs_stack`): the pair
checks the Volterra solve against the resolvent identity on the same z and
k, and `tests/test_route_independence.py` fails on any further shared
definition. The mode resolvent h of the explicit route is the only per-mode
array a caller passes in, and none is cached. The solve route builds the z
and k of all a grid's modes as the rows of two stacks (`mode_equations`),
each one product quadrature against a shared operand (an O(nodes)
exponential recursion per rate, no FFT); a row holds the bits of the
one-mode routes. Those routes, `solve_mode`, `explicit_mode` and
`heat_mode`, are the only one-mode functions kept, because the acceptance
tests compare them; each reads row 0 of a stack (`mode_equations`,
`_rhs_stack`) or calls the one-rate product quadrature.

With no memory kernel the Volterra route degenerates, step by step, into the
plain heat semigroup formula; the tests pin that degeneration down to exact
equality of the discrete values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    convolve,
    convolve_exp_monomial,
    convolve_exp_stack,
    volterra_solve,
)
from .grids import SampledFunction, require_same_grid
from .modes import Mode
from .resolvents import ResolventTriple, mode_kernels


@dataclass(frozen=True)
class ModalTrajectory:
    """One mode's coefficient path w_n(t), started at `initial`."""

    initial: float
    w: SampledFunction

    def __post_init__(self):
        if self.w.values[0] != self.initial:
            raise ValueError("trajectory does not start at its initial value")


def _rhs_stack(rates, rt: ResolventTriple, xis, g: SampledFunction) -> np.ndarray:
    """Right-hand sides k = (e0 - e0*q) xi - e0*g, one row per (rate, xi)."""
    grid = require_same_grid(rt.resolvent, g)
    k = convolve_exp_stack(rt.resolvent.values, grid, rates)
    for row, mu2, xi in zip(k, rates, xis):
        row[:] = xi * np.exp(-mu2 * grid.nodes) - xi * row
    if g.values.any():
        # zero forcing (every CLI path) would subtract exact zeros: x - 0.0 == x
        k -= convolve_exp_stack(g.values, grid, rates)
    return k


def heat_mode(mode: Mode, xi: float, g: SampledFunction) -> ModalTrajectory:
    """Memoryless baseline: w(t) = e^{-lam2 t} xi - int e^{-lam2 (t-s)} g(s) ds."""
    grid = g.grid
    lam2 = mode.eigenvalue
    decay = SampledFunction(grid, np.exp(-lam2 * grid.nodes))
    w = xi * decay - convolve_exp_monomial(g, lam2)
    return ModalTrajectory(xi, w)


def mode_equations(modes, rt: ResolventTriple, xis, g: SampledFunction) -> tuple:
    """Kernels z and right-hand sides k of the mode equations w + z*w = k,
    one row per mode of two (modes, nodes) stacks.

    Warns once per nonpositive-rate mode: its equation is still solved, but
    the decay estimates behind the moment asymptotics fail.
    """
    for mode in modes:
        if mode.shifted_rate <= 0:
            warnings.warn(
                f"mode {mode.index} has nonpositive shifted rate "
                f"{mode.shifted_rate:g}; the solve proceeds but the decay "
                "estimates behind the moment asymptotics do not apply",
                stacklevel=2,
            )
    rates = [mode.shifted_rate for mode in modes]
    return mode_kernels(rt, rates), _rhs_stack(rates, rt, xis, g)


def solve_mode(
    mode: Mode, rt: ResolventTriple, xi: float, g: SampledFunction
) -> ModalTrajectory:
    """Volterra solve of the mode equation w + z*w = k."""
    z, k = mode_equations([mode], rt, [xi], g)
    w = volterra_solve(SampledFunction(g.grid, z[0]), SampledFunction(g.grid, k[0]))
    return ModalTrajectory(xi, w)


def explicit_mode(
    mode: Mode,
    rt: ResolventTriple,
    h: SampledFunction,
    xi: float,
    g: SampledFunction,
) -> ModalTrajectory:
    """Closed-form route w = k - h*k through a precomputed mode resolvent h.

    A nonpositive rate mu2 makes h and k grow like e^{sigma t}, sigma = -mu2,
    and an FFT convolution's round-off is absolute, about eps times the
    largest operands. So h*k is formed as e^{sigma t} ((h e^{-sigma .}) *
    (k e^{-sigma .}))(t), an identity of the trapezoid sums, with
    sigma = max(0, -mu2): for a positive rate the factors are exact ones and
    this is `convolve(h, k)` bit for bit.
    """
    grid = g.grid
    k = SampledFunction(grid, _rhs_stack([mode.shifted_rate], rt, [xi], g)[0])
    sigma = max(0.0, -mode.shifted_rate)
    tilt = np.exp(-sigma * grid.nodes)
    hk = convolve(SampledFunction(grid, h.values * tilt), SampledFunction(grid, k.values * tilt))
    w = k - SampledFunction(grid, hk.values * np.exp(sigma * grid.nodes))
    return ModalTrajectory(xi, w)
