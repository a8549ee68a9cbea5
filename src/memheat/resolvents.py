"""Resolvent transform of a memory kernel and per-mode resolvents.

The transform sends a kernel m to the triple (a, q, q') where a = m(0), q
solves q = m - m*q, and q' is assembled from the differentiated identity
q' = m' - m(0) q - m'*q (no numerical differentiation of q itself). The
per-mode machinery then builds, for a decay rate mu2, the kernel

    z(t) = -int_0^t q'(t-s) e^{-mu2 s} ds

and its resolvent h, by two independent routes: a direct Volterra solve of
h = z - z*h, and a truncated series of iterated convolutions. The two routes
deliberately share no code path past the FFT size, so their agreement is a
real check (`tests/test_route_independence.py` keeps them apart).

Both routes take a stack of rates. Their one-rate functions,
`mode_resolvent_direct` and `mode_resolvent_series`, are the one-row cases,
kept because the acceptance tests compare them and the benchmark's tracer
reads them by name (the direct one's calls, the series one's term count).
The kernels z of a stack (`mode_kernels`, no one-rate twin) are one product
quadrature against the shared operand q', an O(nodes) exponential recursion
per rate with no FFT (`algebra.convolve_exp_stack`); the series route reads
every degree's weights, degree 0 included, from its own moment table.
The series stops each rate at a term count its caller settles
(`series_terms`, a rate-aware bound on the whole tail that refuses a
nonpositive rate), builds the powers q', q'*q', ... once per call up to
the largest count, in one local array freed on return, and sums them
against every rate's monomial weights in one product quadrature over that
operand stack: the powers' spectra are transformed once for all rates, and
each rate gets its own leading powers summed in frequency space and one
moment table up to its count. Nothing is cached on the triple.
"""

from __future__ import annotations

import math
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
SERIES_TOL = 1e-14  # `mode_resolvent_series`'s tolerance, and a config's default


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
        m = SampledFunction(self.grid, self.kernel(self.grid.nodes))
        lhs = self.resolvent + convolve(m, self.resolvent)
        return (lhs - m).sup_norm()

    def end_value(self) -> float:
        """Resolvent value at the final time (drives the moment asymptotics)."""
        return self.resolvent.at_end()


def resolvent_of(kernel: MemoryKernel, grid: TimeGrid) -> ResolventTriple:
    """Compute the resolvent triple of a kernel on a grid."""
    m = SampledFunction(grid, kernel(grid.nodes))
    mp = SampledFunction(grid, kernel.derivative(grid.nodes))
    gain = kernel.value_at_zero
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


def series_terms(triple: ResolventTriple, mu2: float, tol: float) -> int:
    """Number of terms of the series of h at rate mu2 > 0 whose tail stays
    below tol (at least SERIES_MIN_TERMS).

    With S = sup|q'|, |q'^{*(k+1)}(s)| <= S^{k+1} s^k / k!, so term k of
    h = -sum_k q'^{*(k+1)} * u^k e^{-mu2 u} / k! is at most

        B_k = S^{k+1} T^k / k! * min(mu2^{-(k+1)}, T^{k+1} / (k+1)!),

    the weight's mass being at most both. log B_k is concave in k (linear
    terms, -log k! and the smaller of two concave sequences), so the ratio
    r_k = B_{k+1} / B_k does not grow with k, and once it is below 1 the
    tail from term t on is at most B_t / (1 - r_t). The bounds are summed
    in log space, so no power of S overflows. Raises ValueError for tol <= 0,
    and NumericalError for mu2 <= 0 (the series' quadrature needs a positive
    rate) or if SERIES_MAX_TERMS terms do not suffice.
    """
    if tol <= 0:
        raise ValueError("series tolerance must be positive")
    if mu2 <= 0:
        raise NumericalError("the series route requires a positive decay rate; use the direct route")
    sup = triple.resolvent_deriv.sup_norm()
    if sup == 0.0:  # q' = 0: every term vanishes
        return SERIES_MIN_TERMS
    log_s, log_t, log_mu = math.log(sup), math.log(triple.grid.horizon), math.log(mu2)

    def log_bound(k):
        mass = min(-(k + 1) * log_mu, (k + 1) * log_t - math.lgamma(k + 2))
        return (k + 1) * log_s + k * log_t - math.lgamma(k + 1) + mass

    log_tol = math.log(tol)
    for t in range(SERIES_MIN_TERMS, SERIES_MAX_TERMS + 1):
        ratio = math.exp(min(log_bound(t + 1) - log_bound(t), 0.0))
        if ratio < 1.0 and log_bound(t) - math.log1p(-ratio) < log_tol:
            return t
    # the majorant B_60 as mantissa and exponent: it may exceed a double
    exponent = math.floor(log_bound(SERIES_MAX_TERMS) / math.log(10.0))
    mantissa = math.exp(log_bound(SERIES_MAX_TERMS) - exponent * math.log(10.0))
    raise NumericalError(
        f"mode-resolvent series did not reach tolerance {tol:g} within "
        f"{SERIES_MAX_TERMS} terms at rate {mu2:g} "
        f"(majorant {mantissa:.3g}e{exponent:+03d}); the kernel derivative is "
        "too large for this rate and horizon, use the direct route"
    )


def mode_resolvent_series_stack(triple: ResolventTriple, rates, terms) -> np.ndarray:
    """Resolvent h of the mode kernel for every rate, as a truncated
    iterated-convolution series: a (rates, nodes) stack.

    Rate r stops at its count terms[r] (`series_terms`, settled by the
    caller). The powers q', q'*q', ... do not depend on the rate: one local
    array holds them, and h = -sum_{k < terms[r]} (q'^{*(k+1)} * u^k e^{-mu2 u} / k!)
    is one product quadrature over it, row r summing its first terms[r]
    operands. Row i holds the bits of the one-rate call for rates[i].
    """
    grid, dq = triple.grid, triple.resolvent_deriv
    powers = np.empty((max(terms), grid.size))
    powers[0] = dq.values
    for k in range(1, len(powers)):
        powers[k] = convolve(SampledFunction(grid, powers[k - 1]), dq).values
    h = convolve_exp_monomial_stack(powers, grid, rates, terms)
    return np.negative(h, out=h)


def mode_resolvent_series(triple: ResolventTriple, mu2: float) -> tuple:
    """`mode_resolvent_series_stack` for one rate at its own count for
    SERIES_TOL, settled before any convolution: (h, terms_used)."""
    terms = series_terms(triple, mu2, SERIES_TOL)
    h = mode_resolvent_series_stack(triple, [mu2], [terms])
    return SampledFunction(triple.grid, h[0]), terms
