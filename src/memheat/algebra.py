"""Convolution algebra on uniform time grids.

Everything downstream is built on three operations over sampled functions:

* `convolve` - trapezoid-rule convolution, FFT-accelerated, with a canonical
  operand ordering so that f*g and g*f are bitwise identical.
* `volterra_solve` - solve y + K*y = f by marching the trapezoid scheme.
* `convolve_exp` / `convolve_exp_monomial` - product quadrature against
  exponential (times monomial) weights, exact on the weight factor, so the
  accuracy is uniform in the decay rate instead of collapsing for stiff modes.

The product quadrature is the load-bearing piece: a plain trapezoid rule
applied to f(s) e^{-mu2 (t-s)} loses all accuracy once mu2*dt is order one,
while integrating the weight exactly over each cell keeps the O(dt^2) error
constant across the whole spectrum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import NumericalError
from .grids import SampledFunction, TimeGrid, require_same_grid


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-d arrays via a power-of-two rfft."""
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    return np.fft.irfft(fa * fb, size)[:n]


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Trapezoid-rule convolution (f*g)(t_i) = int_0^{t_i} f(s) g(t_i - s) ds.

    The operands are passed to the FFT in a canonical order (decided by the
    raw bytes of their samples), which makes the operation bitwise
    commutative: floating-point convolution theorems hold only up to
    round-off, and fused-multiply-add hardware makes even the elementwise
    products order-sensitive, so commutativity has to be imposed rather than
    hoped for.
    """
    grid = require_same_grid(f, g)
    a, b = f.values, g.values
    if a.tobytes() > b.tobytes():
        a, b = b, a
    raw = _fft_convolve(a, b)[: grid.size]
    out = grid.dt * (raw - 0.5 * (a[0] * b + b[0] * a))
    out[0] = 0.0
    return SampledFunction(grid, out)


def volterra_solve(kernel: SampledFunction, rhs: SampledFunction) -> SampledFunction:
    """Solve y + K*y = f on the grid by marching the trapezoid discretization.

    Each step divides by (1 + dt*K(0)/2); if that pivot is near zero the
    scheme is degenerate and we refuse to continue rather than amplify noise.
    """
    grid = require_same_grid(kernel, rhs)
    K = kernel.values
    f = rhs.values
    dt = grid.dt
    pivot = 1.0 + 0.5 * dt * K[0]
    if abs(pivot) < 1e-12:
        raise NumericalError(
            "Volterra step is degenerate: 1 + dt*K(0)/2 is numerically zero. "
            "Refine the time grid or rescale the kernel."
        )
    y = np.empty_like(f)
    y[0] = f[0]
    for i in range(1, len(f)):
        acc = 0.5 * K[i] * y[0]
        if i > 1:
            acc += np.dot(K[i - 1 : 0 : -1], y[1:i])
        y[i] = (f[i] - dt * acc) / pivot
    return SampledFunction(grid, y)


def exp_profile(grid: TimeGrid, rate: float) -> SampledFunction:
    """Samples of e^{-rate * t} on the grid."""
    return SampledFunction(grid, np.exp(-float(rate) * grid.nodes))


# ---------------------------------------------------------------------------
# Product quadrature against exponential weights
# ---------------------------------------------------------------------------
#
# The target integrals are
#
#     (f * w_k)(t) = int_0^t f(s) (t-s)^k e^{-mu2 (t-s)} / k! ds
#
# with f piecewise linear on the grid. Writing f on each cell as its value
# plus slope correction, the integral becomes a discrete convolution of the
# node values (and the cell slopes) against exact per-cell moments
#
#     A_k(j) = int_{(j-1) dt}^{j dt} u^k e^{-mu2 u} du,
#
# which we evaluate in closed form. Both convolutions run through the same
# FFT helper as `convolve`.


def _cell_moments_01(mu2: float, grid: TimeGrid) -> tuple:
    """Exact cell moments A_0, A_1 for any sign of the rate.

    For |mu2*dt| >= 1/2 the usual closed forms are stable; below that the
    subtractions cancel, so a short series in x = mu2*dt takes over.
    """
    dt = grid.dt
    n = grid.size
    j = np.arange(1, n, dtype=float)
    x = mu2 * dt
    if abs(x) >= 0.5:
        e_left = np.exp(-mu2 * (j - 1.0) * dt)
        e_right = np.exp(-mu2 * j * dt)
        A0 = (e_left - e_right) / mu2
        A1 = ((j - 1.0) * dt + 1.0 / mu2) * e_left / mu2 - (j * dt + 1.0 / mu2) * e_right / mu2
    else:
        # p1 = int_0^1 e^{-x v} dv, p2 = int_0^1 v e^{-x v} dv as power series.
        p1 = 0.0
        p2 = 0.0
        term = 1.0
        for m in range(30):
            p1 += term / (m + 1.0)
            p2 += term / (m + 2.0)
            term *= -x / (m + 1.0)
            if abs(term) < 1e-20:
                break
        e_left = np.exp(-mu2 * (j - 1.0) * dt)
        A0 = dt * p1 * e_left
        A1 = dt * ((j - 1.0) * dt * p1 + dt * p2) * e_left
    return A0, A1


def _cell_moments_k(mu2: float, k: int, grid: TimeGrid) -> tuple:
    """Exact cell moments A_k, A_{k+1} for k >= 1 via incomplete gammas.

    Requires mu2 > 0 (the gamma route); the k in {0, 1} path above covers
    nonpositive rates.
    """
    dt = grid.dt
    n = grid.size
    edges = np.arange(n, dtype=float) * dt

    def moments(kk: int) -> np.ndarray:
        # int_0^T u^kk e^{-mu2 u} du = gammainc(kk+1, mu2 T) * kk! / mu2^{kk+1}
        scale = np.exp(gammaln(kk + 1.0) - (kk + 1.0) * np.log(mu2))
        cum = gammainc(kk + 1.0, mu2 * edges) * scale
        return np.diff(cum)

    return moments(k), moments(k + 1)


def convolve_exp_monomial(
    f: SampledFunction, mu2: float, k: int = 0
) -> SampledFunction:
    """(f * w)(t) for the weight w(u) = u^k e^{-mu2 u} / k!, exact in w.

    f is treated as piecewise linear between its samples. Nonpositive rates
    are supported for k in {0, 1} (the series-stabilized closed forms); the
    incomplete-gamma route for k >= 2 needs mu2 > 0.
    """
    grid = f.grid
    dt = grid.dt
    if k < 0:
        raise ValueError("monomial degree must be nonnegative")
    if k == 0:
        Ak, Ak1 = _cell_moments_01(mu2, grid)
    else:
        if mu2 <= 0:
            raise NumericalError(
                "monomial-weight quadrature with k >= 1 requires a positive rate; "
                "use the direct resolvent route for nonpositive rates"
            )
        Ak, Ak1 = _cell_moments_k(mu2, k, grid)

    n = grid.size
    # Node-value weights and slope-correction weights, one entry per cell.
    WA = np.zeros(n)
    WA[1:] = Ak
    WB = np.zeros(n)
    lag = np.arange(1, n, dtype=float) * dt
    WB[1:] = lag * Ak - Ak1

    vals = f.values
    slopes = np.empty(n)
    slopes[:-1] = np.diff(vals) / dt
    slopes[-1] = 0.0

    out = _fft_convolve(WA, vals)[:n] + _fft_convolve(WB, slopes)[:n]
    out /= float(math.factorial(k))
    out[0] = 0.0
    return SampledFunction(grid, out)


def convolve_exp(f: SampledFunction, rate: float) -> SampledFunction:
    """(f * e)(t) with e(u) = e^{-rate u}, exact in the exponential factor."""
    return convolve_exp_monomial(f, rate, k=0)


def end_pairing(f: SampledFunction, g: SampledFunction) -> float:
    """Trapezoid value of int_0^T f(s) g(T - s) ds (the last convolve node)."""
    grid = require_same_grid(f, g)
    a = f.values
    b = g.values[::-1]
    raw = float(np.dot(a, b))
    return grid.dt * (raw - 0.5 * (a[0] * b[0] + a[-1] * b[-1]))
