"""Convolution algebra on uniform time grids.

Everything downstream is built on three operations over sampled functions:

* `convolve` - trapezoid-rule convolution, FFT-accelerated, with a canonical
  operand ordering so that f*g and g*f are bitwise identical.
* `volterra_solve_stack` - solve y + K*y = f for a stack of rows, one kernel
  and one right-hand side per row, the trapezoid scheme solved blockwise
  with FFT history in O(n log^2 n) per row; `volterra_solve` is its one-row
  case on sampled functions.
* `convolve_exp_monomial_stack` - product quadrature against exponential
  (times monomial) weights, exact on the weight factor, so the accuracy is
  uniform in the decay rate instead of collapsing for stiff modes; one row
  per rate, the sum over a stack of operands, operand k against the weight
  of degree k, summed in frequency space; `convolve_exp_monomial` /
  `convolve_exp` are its one-row cases on sampled functions.

The product quadrature is the load-bearing piece: a plain trapezoid rule
applied to f(s) e^{-mu2 (t-s)} loses all accuracy once mu2*dt is order one,
while integrating the weight exactly over each cell keeps the O(dt^2) error
constant across the whole spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .grids import SampledFunction, TimeGrid, check_finite, require_same_grid


def _fft_size(n: int) -> int:
    """Smallest power of two holding a linear convolution of n samples."""
    return 1 << (n - 1).bit_length()


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
    size = _fft_size(2 * grid.size - 1)
    spectrum = np.fft.rfft(a, size)
    spectrum *= np.fft.rfft(b, size)
    raw = np.fft.irfft(spectrum, size)[: grid.size]
    out = grid.dt * (raw - 0.5 * (a[0] * b + b[0] * a))
    out[0] = 0.0
    return SampledFunction(grid, out)


# Largest diagonal block the Volterra solve inverts directly; the history
# between blocks goes through FFT convolutions.
BLOCK = 128


def volterra_solve(kernel: SampledFunction, rhs: SampledFunction) -> SampledFunction:
    """Solve y + K*y = f on the grid: `volterra_solve_stack` for one row."""
    grid = require_same_grid(kernel, rhs)
    y = volterra_solve_stack(kernel.values[None], rhs.values[None], grid.dt)
    return SampledFunction(grid, y[0])


def volterra_solve_stack(kernels: np.ndarray, rhs: np.ndarray, dt: float) -> np.ndarray:
    """Solve y_r + K_r*y_r = f_r for every row r of two (rows, nodes) stacks.

    The trapezoid scheme is, per row, the lower-triangular Toeplitz system

        pivot y_i + dt sum_{0<j<i} K_{i-j} y_j = f_i - dt K_i y_0 / 2,

    pivot = 1 + dt*K(0)/2, which this solves by divide and conquer (Hairer,
    Lubich & Schlichte 1985): the unknowns are halved recursively, the
    history of a solved left half reaches the right half through one FFT
    middle product, and blocks of at most BLOCK nodes are solved by
    convolving with the first column of the inverse of the leading
    BLOCK x BLOCK system matrix (itself lower-triangular Toeplitz). That
    costs O(n log^2 n) per row instead of the O(n^2) of marching step by
    step, and a zero kernel returns f bit for bit.

    The middle product (Hanrot, Quercia & Zimmermann 2004): a span
    [lo, hi) of m nodes split at mid needs only the outputs mid-lo .. m-1
    of y[lo:mid] * K[:m], and a circular convolution of size
    _fft_size(m) wraps nothing onto them, so each history step transforms
    at the size of its span, not of the linear product (about twice that).

    All rows go down the recursion together, so a stack pays its Python
    overhead once, and each row gets the same bits as a solve of that row
    alone: its own pivot and inverse block, and the same operations on it.
    The history accumulates in the output stack, each node read once at its
    block before the solution overwrites it. One FFT call transforms
    max(1, top // size) rows, top = _fft_size(n - 1) being the FFT size of
    the widest span, so no call holds more than the widest transform of a
    single row.

    Raises NumericalError if a row's pivot is near zero (the scheme is
    degenerate there, and we refuse to amplify noise) or a row overflows.
    """
    pivots = 1.0 + 0.5 * dt * kernels[:, 0]
    if np.any(np.abs(pivots) < 1e-12):
        raise NumericalError(
            "Volterra step is degenerate: 1 + dt*K(0)/2 is numerically zero. "
            "Refine the time grid or rescale the kernel."
        )
    n = rhs.shape[1]
    # First column of each row's inverse block matrix: a unit impulse pushed
    # through the leading block of that row's system.
    m = min(BLOCK, n - 1)
    inv = np.zeros((len(rhs), m))
    for K, row, pivot in zip(kernels, inv, pivots):
        row[0] = 1.0 / pivot
        for i in range(1, m):
            row[i] = -dt * np.dot(K[i:0:-1], row[:i]) / pivot
    y = np.empty(rhs.shape)
    y[:, 0] = rhs[:, 0]
    np.multiply(kernels[:, 1:], 0.5, out=y[:, 1:])  # the history of y_0
    y[:, 1:] *= y[:, :1]
    top = _fft_size(n - 1)  # the span [1, n)
    _solve_span(y, rhs, kernels, inv, dt, 1, n, top)
    check_finite(y)
    return y


def _solve_span(y, f, K, inv, dt, lo, hi, top):
    """Fill y[:, lo:hi], given that it holds the history from y[:, :lo]."""
    m = hi - lo
    if m <= BLOCK:
        b = f[:, lo:hi] - dt * y[:, lo:hi]
        for row, inv_row, b_row in zip(y, inv, b):
            row[lo:hi] = np.convolve(inv_row[:m], b_row)[:m]
        return
    mid = lo + m // 2
    _solve_span(y, f, K, inv, dt, lo, mid, top)
    size = _fft_size(m)  # the middle product: no wrap-around onto mid-lo .. m-1
    rows = max(1, top // size)
    for r in range(0, len(y), rows):
        spectrum = np.fft.rfft(y[r : r + rows, lo:mid], size)
        spectrum *= np.fft.rfft(K[r : r + rows, :m], size)
        y[r : r + rows, mid:hi] += np.fft.irfft(spectrum, size)[:, mid - lo : m]
    _solve_span(y, f, K, inv, dt, mid, hi, top)


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
#     A_k(j) = int_{(j-1) dt}^{j dt} u^k e^{-mu2 u} du.
#
# Degree 0 has closed forms for any sign of mu2 (`_cell_moments_01`). The
# higher degrees, which only the series route asks for, come from one table
# per (mu2, grid) holding every degree up to the stack's top: the incomplete
# gamma integral at the top degree, stepped down by its positive
# recurrence, in numpy alone (`_moment_table`), built once per rate in each
# stacked call.


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


# Samples per batched FFT call of the product quadrature: as many rows go
# through one rfft call as fit in one transform of this size (at least one).
FFT_BATCH = 1 << 15


def _moment_table(mu2: float, grid: TimeGrid, top: int) -> np.ndarray:
    """Cell moments A_d(j) of every degree d = 0..top, one row per degree.

    The cumulative integrals C_d(t) = int_0^t u^d e^{-mu2 u} du are
    d!/mu2^{d+1} P(d+1, mu2 t), P the regularized lower incomplete gamma.
    C_top comes from P at the order a = top + 1, with y = mu2 t: for y < a
    by the lower series P(a, y) = y^a e^{-y}/a! sum_m y^m / ((a+1)...(a+m)),
    which makes C_top = t^a e^{-y}/a times that sum; otherwise as
    P(a, y) = 1 - e^{-y} sum_{i<a} y^i/i!. The lower degrees follow from
    C_d = (mu2 C_{d+1} + t^{d+1} e^{-y}) / (d+1) (integration by parts, the
    recurrence P(i, y) = P(i+1, y) + y^i e^{-y}/i! scaled): every term added
    is positive, so it is stable for every y, and no factor d!/mu2^{d+1}
    that could overflow for a small rate is formed. The cells are
    differences of the C_d. Needs mu2 > 0.

    A row depends only on (mu2, grid, top). Nothing is cached across calls:
    a quadrature builds each rate's table once, up to the top degree it
    asks for, and drops it on return.
    """
    t = np.arange(grid.size, dtype=float) * grid.dt
    y = mu2 * t
    a = top + 1
    # w[i] = t^i e^{-y} for i = 0..a, as products of positive factors.
    w = np.empty((a + 1, grid.size))
    w[0] = np.exp(-y)
    for i in range(1, a + 1):
        np.multiply(w[i - 1], t, out=w[i])
    c = np.empty(grid.size)  # C_top
    low = y < a
    yl = y[low]
    term = np.ones_like(yl)
    series = np.ones_like(yl)
    m = 0
    while term.max(initial=0.0) > 1e-17:  # series >= 1: a relative bound
        m += 1
        term *= yl / (a + m)
        series += term
    c[low] = w[a, low] * series / a
    yu = y[~low]
    term = np.exp(-yu)
    q = term.copy()  # e^{-y} sum_{i<a} y^i/i!
    for i in range(1, a):
        term *= yu / i
        q += term
    scale = 1.0 / mu2  # top!/mu2^a, finite wherever some y >= a
    for d in range(1, a):
        scale *= d / mu2
    c[~low] = scale * (1.0 - q)
    # Row d of the table takes the place of w[d + 1], its last reader, so
    # the table costs no second buffer.
    for d in range(top, -1, -1):
        if d < top:
            c = (mu2 * c + w[d + 1]) / (d + 1)
        np.subtract(c[1:], c[:-1], out=w[d + 1, :-1])
    return w[1:, :-1]


def convolve_exp_monomial_stack(f: np.ndarray, grid: TimeGrid, rates) -> np.ndarray:
    """Row r is sum_k (f_k * w_k)(t), w_k(u) = u^k e^{-mu2 u} / k! and
    mu2 = rates[r], exact in every w_k.

    f is a stack of operands (degrees, nodes), operand k against the weight
    of degree k, or one operand (nodes,); each is piecewise linear between
    its samples. Degree 0 has closed forms for any sign of the rate; degrees
    k >= 1 read the rate's `_moment_table`, so more than one operand needs
    every rate positive.

    The convolutions are FFTs of size _fft_size(2 nodes - 1), at most
    max(1, FFT_BATCH // size) rows per rfft call. Each operand's value and
    slope spectra are transformed once per call. For each rate, the
    products of its weight spectra with them are summed in two
    accumulators, values and slopes, each with one inverse FFT, and its
    moment table goes up to the stack's top degree. A row depends on its
    own rate only; for one operand nothing is summed. Raises
    NumericalError if a row overflows.
    """
    f = np.atleast_2d(f)
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    degrees = len(f)
    if degrees > 1 and np.any(rates <= 0):
        raise NumericalError(
            "monomial-weight quadrature with k >= 1 requires a positive rate; "
            "use the direct resolvent route for nonpositive rates"
        )
    n, dt = grid.size, grid.dt
    size = _fft_size(2 * n - 1)
    batch = max(1, FFT_BATCH // size)
    blocks = [slice(lo, lo + batch) for lo in range(0, degrees, batch)]
    lag = np.arange(1, n, dtype=float) * dt
    # Per block of operands, the spectra of their node values and of their
    # cell slopes (0 past the last cell), each operand's scaled by 1/k!.
    spectra = []
    for rows in blocks:
        pair = (
            np.fft.rfft(f[rows], size),
            np.fft.rfft(np.diff(f[rows], append=f[rows, -1:]) / dt, size),
        )
        for spectrum in pair:
            spectrum /= [[float(math.factorial(k))] for k in range(degrees)[rows]]
        spectra.append(pair)

    def weights(mu2, table, ks):
        """Node-value and slope-correction weights of each cell, one row per
        degree in ks."""
        wa = np.zeros((len(ks), n))
        wb = np.zeros_like(wa)
        for a, b, k in zip(wa, wb, ks):
            Ak, Ak1 = table[k : k + 2] if k else _cell_moments_01(mu2, grid)
            a[1:] = Ak
            np.multiply(lag, Ak, out=b[1:])
            b[1:] -= Ak1
        return wa, wb

    def summed(w, spectrum, total):
        """total plus the spectra of the rows of w times `spectrum`, summed
        over the rows (that sum alone when total is None)."""
        product = np.fft.rfft(w, size)
        product *= spectrum
        part = product[0] if len(product) == 1 else product.sum(axis=0)
        if total is None:
            return part
        total += part
        return total

    def fill(row, mu2):
        """Row of one rate: the value sum is inverted before the last slope
        products form, and the table and sums are freed on return."""
        table = _moment_table(mu2, grid, degrees) if degrees > 1 else None
        value_sum = slope_sum = None
        for rows, (values, slopes) in zip(blocks, spectra):
            wa, wb = weights(mu2, table, range(degrees)[rows])
            value_sum = summed(wa, values, value_sum)
            if rows is blocks[-1]:
                row[:] = np.fft.irfft(value_sum, size)[:n]
                value_sum = None
            slope_sum = summed(wb, slopes, slope_sum)
        row += np.fft.irfft(slope_sum, size)[:n]

    out = np.empty((len(rates), n))
    for row, mu2 in zip(out, rates):
        fill(row, mu2)
    out[:, 0] = 0.0
    check_finite(out)
    return out


def convolve_exp_monomial(
    f: SampledFunction, mu2: float, k: int = 0
) -> SampledFunction:
    """(f * w)(t) for the weight w(u) = u^k e^{-mu2 u} / k!, exact in w:
    `convolve_exp_monomial_stack` for one rate, f the operand of degree k
    in a stack whose other operands are zero."""
    if k < 0:
        raise ValueError("monomial degree must be nonnegative")
    operands = np.zeros((k + 1, f.grid.size))
    operands[k] = f.values
    out = convolve_exp_monomial_stack(operands, f.grid, mu2)
    return SampledFunction(f.grid, out[0])


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
