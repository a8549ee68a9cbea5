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
    volterra_solve_stack,
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
        """sup |q + m*q - m| with the trapezoid rule the solve enforces: round-off,
        not discretization error (`oracle_sup_error` is the accuracy figure)."""
        m = self.kernel.sample(self.grid)
        lhs = self.resolvent + convolve(m, self.resolvent)
        return (lhs - m).sup_norm()

    def end_value(self) -> float:
        """Resolvent value at the final time (drives the moment asymptotics)."""
        return self.resolvent.at_end()

    def series_powers(self, terms: int) -> list:
        """The convolution powers q', q'*q', ... (`terms` of them).

        They do not depend on the mode, so the series route builds them once
        per triple and extends the list when a later call needs more; each
        power is the previous one convolved with q', whatever the call order.
        """
        powers = self.__dict__.setdefault("_series_powers", [self.resolvent_deriv])
        while len(powers) < terms:
            powers.append(convolve(powers[-1], self.resolvent_deriv))
        return powers[:terms]


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


def mode_resolvent_stack(triple: ResolventTriple, rates) -> np.ndarray:
    """`mode_resolvent_direct` for every rate in one stacked solve.

    Row i holds the samples of h for rates[i], bit for bit those of the
    one-rate call; the kernels z fill one stack in place.
    """
    z = np.empty((len(rates), triple.grid.size))
    for row, mu2 in zip(z, rates):
        row[:] = mode_kernel(triple, mu2).values
    return volterra_solve_stack(z, z, triple.grid.dt)


def _series_terms(sup_deriv: float, horizon: float, tol: float) -> int:
    """Number of terms k = 1, 2, ... after which the analytic majorant

        (sup|q'| * T)^k / k!

    drops below tol (at least SERIES_MIN_TERMS). Raises if SERIES_MAX_TERMS
    terms do not suffice.
    """
    if tol <= 0:
        raise ValueError("series tolerance must be positive")
    bound = 1.0
    for k in range(1, SERIES_MAX_TERMS + 1):
        bound *= sup_deriv * horizon / k
        if bound < tol and k >= SERIES_MIN_TERMS:
            return k
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
    sup_deriv = triple.resolvent_deriv.sup_norm()
    # The majorant does not depend on the mode: settle the term count (or
    # fail) before the first convolution.
    terms = _series_terms(sup_deriv, grid.horizon, tol)
    out = np.zeros(grid.size)
    for k, power in enumerate(triple.series_powers(terms)):
        out -= convolve_exp_monomial(power, mu2, k).values
    return SampledFunction(grid, out), terms
