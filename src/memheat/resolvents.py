"""Resolvent transform of a memory kernel and per-mode resolvents.

The transform sends a kernel m to the triple (a, q, q') where a = m(0), q
solves q = m - m*q, and q' is assembled from the differentiated identity
q' = m' - m(0) q - m'*q (no numerical differentiation of q itself). The
per-mode machinery then builds, for a decay rate mu2, the kernel

    z(t) = -int_0^t q'(t-s) e^{-mu2 s} ds

and its resolvent h, by two independent routes: a direct Volterra solve of
h = z - z*h, and a truncated series of iterated convolutions. The two routes
deliberately share no code path, so their agreement is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    convolve,
    convolve_exp,
    convolve_exp_monomial,
    volterra_solve,
)
from .errors import NumericalError
from .grids import SampledFunction, TimeGrid
from .kernels import MemoryKernel

SERIES_MIN_TERMS = 3
SERIES_MAX_TERMS = 60


@dataclass(frozen=True)
class ResolventTriple:
    """Kernel samples together with the resolvent data derived from them."""

    kernel: MemoryKernel
    grid: TimeGrid
    gain: float  # kernel value at t = 0
    resolvent: SampledFunction
    resolvent_deriv: SampledFunction

    def identity_residual(self) -> float:
        """sup |q + m*q - m| over the grid; a direct check of the defining equation."""
        m = self.kernel.sample(self.grid)
        lhs = self.resolvent + convolve(m, self.resolvent)
        return (lhs - m).sup_norm()

    def end_value(self) -> float:
        """Resolvent value at the final time (drives the moment asymptotics)."""
        return self.resolvent.at_end()


def resolvent_of(kernel: MemoryKernel, grid: TimeGrid) -> ResolventTriple:
    """Compute the resolvent triple of a kernel on a grid."""
    m = kernel.sample(grid)
    mp = kernel.sample_derivative(grid)
    gain = kernel.value_at_zero
    if kernel.is_zero:
        q = SampledFunction.zeros(grid)
        dq = SampledFunction.zeros(grid)
    else:
        q = volterra_solve(m, m)
        dq = mp - gain * q - convolve(mp, q)
    return ResolventTriple(kernel, grid, gain, q, dq)


def mode_kernel(triple: ResolventTriple, mu2: float) -> SampledFunction:
    """z = -(q' * e) with e(u) = e^{-mu2 u}; any sign of mu2 is accepted."""
    return -convolve_exp(triple.resolvent_deriv, mu2)


def mode_resolvent_direct(triple: ResolventTriple, mu2: float) -> SampledFunction:
    """Resolvent h of the mode kernel via the Volterra identity h = z - z*h."""
    z = mode_kernel(triple, mu2)
    return volterra_solve(z, z)


def _series_schedule(sup_deriv: float, horizon: float, tol: float):
    """Yield term indices k = 1, 2, ... until the analytic majorant

        (sup|q'| * T)^k / k!

    drops below tol (with at least SERIES_MIN_TERMS terms taken). Raises if
    SERIES_MAX_TERMS terms do not suffice.
    """
    if tol <= 0:
        raise ValueError("series tolerance must be positive")
    bound = 1.0
    for k in range(1, SERIES_MAX_TERMS + 1):
        bound *= sup_deriv * horizon / k
        yield k
        if bound < tol and k >= SERIES_MIN_TERMS:
            return
    raise NumericalError(
        f"mode-resolvent series did not reach tolerance {tol:g} within "
        f"{SERIES_MAX_TERMS} terms (majorant {bound:g}); the kernel derivative "
        "is too large for this horizon, use the direct route"
    )


def mode_resolvent_series(
    triple: ResolventTriple, mu2: float, tol: float = 1e-14
) -> tuple:
    """Resolvent h of the mode kernel as a truncated iterated-convolution series.

    Returns (h, terms_used). Requires mu2 > 0 (the monomial-weight quadrature
    is only stable there); the direct route has no such restriction.
    """
    if mu2 <= 0:
        raise NumericalError(
            "the series route requires a positive decay rate; use the direct route"
        )
    grid = triple.grid
    dq = triple.resolvent_deriv
    sup_deriv = dq.sup_norm()
    out = np.zeros(grid.size)
    power = dq
    terms = 0
    for k in _series_schedule(sup_deriv, grid.horizon, tol):
        out -= convolve_exp_monomial(power, mu2, k - 1).values
        terms = k
        power = convolve(power, dq)
    return SampledFunction(grid, out), terms
