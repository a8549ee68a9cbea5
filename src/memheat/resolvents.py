"""Resolvent transform of a memory kernel and per-mode resolvents.

The transform sends a kernel m to the triple (a, q, q') where a = m(0), q
solves q = m - m*q, and q' is assembled from the differentiated identity
q' = m' - m(0) q - m'*q (no numerical differentiation of q itself). The
per-mode machinery then builds, for a decay rate mu2, the kernel

    z(t) = -int_0^t q'(t-s) e^{-mu2 s} ds

and its resolvent h, by two independent routes: a direct Volterra solve of
h = z - z*h, and a truncated series of iterated convolutions. The two routes
deliberately share no code path, so their agreement is a real check.

Both routes take a stack of rates. Their one-rate functions,
`mode_resolvent_direct` and `mode_resolvent_series`, are the one-row cases,
kept because the acceptance tests compare them and the benchmark's tracer
counts the direct one by name; `mode_kernels` has no one-rate twin. The
kernels z of a stack are one product quadrature against the shared operand
q', an O(nodes) exponential recursion per rate with no FFT
(`algebra.convolve_exp_stack`), which the series route does not use.
The series builds the powers q', q'*q', ... once per call, in one local
(terms, nodes) array freed on return, and sums them against the monomial
weights of every rate in one product quadrature over that operand stack:
the powers' spectra are transformed once for all rates, and each rate gets
one quadrature, its terms summed in frequency space, and one moment table
up to the top degree. Nothing is cached on the triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    convolve,
    convolve_exp_monomial_stack,
    convolve_exp_stack,
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


def mode_kernels(triple: ResolventTriple, rates) -> np.ndarray:
    """z = -(q' * e) with e(u) = e^{-mu2 u} for every rate, one row each;
    any sign of mu2 is accepted."""
    z = convolve_exp_stack(triple.resolvent_deriv.values, triple.grid, rates)
    return np.negative(z, out=z)


def mode_resolvent_direct(triple: ResolventTriple, mu2: float) -> SampledFunction:
    """Resolvent h of the mode kernel via the Volterra identity h = z - z*h."""
    z = SampledFunction(triple.grid, mode_kernels(triple, mu2)[0])
    return volterra_solve(z, z)


def mode_resolvent_stack(triple: ResolventTriple, rates) -> np.ndarray:
    """`mode_resolvent_direct` for every rate in one stacked solve.

    Row i holds the samples of h for rates[i], bit for bit those of the
    one-rate call.
    """
    z = mode_kernels(triple, rates)
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


def mode_resolvent_series_stack(
    triple: ResolventTriple, rates, tol: float = 1e-14
) -> tuple:
    """Resolvent h of the mode kernel for every rate, as a truncated
    iterated-convolution series.

    Returns ((rates, nodes) stack of h, terms_used). The powers q', q'*q',
    ... do not depend on the rate: `terms` - 1 convolutions build them once
    in one local array, and h = -sum_k (q'^{*(k+1)} * u^k e^{-mu2 u} / k!)
    is one product quadrature over that stack. Row i holds the bits of the
    one-rate call for rates[i]. Requires every rate > 0 (the monomial-weight quadrature is
    only stable there); the direct route has no such restriction.
    """
    if any(mu2 <= 0 for mu2 in rates):
        raise NumericalError(
            "the series route requires a positive decay rate; use the direct route"
        )
    grid = triple.grid
    dq = triple.resolvent_deriv
    # The majorant does not depend on the mode: settle the term count (or
    # fail) before the first convolution.
    terms = _series_terms(dq.sup_norm(), grid.horizon, tol)
    powers = np.empty((terms, grid.size))
    powers[0] = dq.values
    for k in range(1, terms):
        powers[k] = convolve(SampledFunction(grid, powers[k - 1]), dq).values
    h = convolve_exp_monomial_stack(powers, grid, rates)
    return np.negative(h, out=h), terms


def mode_resolvent_series(
    triple: ResolventTriple, mu2: float, tol: float = 1e-14
) -> tuple:
    """`mode_resolvent_series_stack` for one rate: (h, terms_used)."""
    h, terms = mode_resolvent_series_stack(triple, [mu2], tol)
    return SampledFunction(triple.grid, h[0]), terms
