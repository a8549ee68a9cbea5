"""Convolution algebra on uniform time grids.

Everything downstream is built on four operations over sampled functions:

* `convolve` - trapezoid-rule convolution, FFT-accelerated, with a canonical
  operand ordering so that f*g and g*f are bitwise identical.
* `volterra_solve_stack` - solve y + K*y = f for a stack of rows, one kernel
  and one right-hand side per row, the trapezoid scheme solved blockwise
  with FFT history in O(n log^2 n) per row, each span length's kernel
  spectrum transformed once per call where the bound allows;
  `volterra_solve` is its one-row case on sampled functions.
* `convolve_exp_stack` - product quadrature of one operand against the
  exponential weight e^{-mu2 u}, one row per rate, for any sign of the
  rate: the exact recursion of the cell weights, evaluated as tilted
  prefix sums in O(n) per row with no FFT; `convolve_exp_monomial` is its
  one-rate case on sampled functions.
* `convolve_exp_monomial_stack` - product quadrature of a stack of operands,
  operand k against the weight u^k e^{-mu2 u}/k!, one row per positive
  rate, each rate summing its own number of leading operands: each node
  value weighted by the moment of its hat function, one spectrum per
  operand and one weight row per degree, the degrees summed in frequency
  space, every degree's moments read from one table per rate. Only the
  series route of the mode resolvents asks for it, so the series and the
  direct route share no quadrature code.

The two one-row functions are the only ones kept: the benchmark's tracer
times both by name, and the routes that work one row at a time (the kernel
resolvent, the direct mode resolvent, the heat baseline and the end
brackets of the moment targets) call them.

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

    Every span of m nodes transforms the same kernel prefix K[:, :m] at
    _fft_size(m). Where the spectra of all rows fit in one such call
    (rows * size <= top), the first span of length m transforms them and
    the later ones reuse them, bit for bit the same products; the other
    lengths transform per span, and so does the root span [1, n), the only
    span of its length. The kept spectra are dropped on return. A level of
    the recursion has spans of at most two lengths, the FFT size halves
    from one level to the next, and a kept length holds
    rows (size/2 + 1) <= top/2 + rows complex samples, so the kept spectra
    hold at most 2 top + 2 rows log2(top) of them, and top + 2 log2(top)
    for one row, whose first kept level is the root's children (measured
    for one row: 0.49 top at 16,001 nodes, 0.50 top at 800,001 and
    0.75 top at 2^19 + 2; for 2 to 12 rows at most 1.0 top).

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
    _solve_span(y, rhs, kernels, inv, dt, 1, n, top, {})
    check_finite(y)
    return y


def _solve_span(y, f, K, inv, dt, lo, hi, top, kernel_spectra):
    """Fill y[:, lo:hi], given that it holds the history from y[:, :lo].

    kernel_spectra maps a span length m to the spectra of K[:, :m], for the
    lengths whose spectra of all rows fit in one transform of size top.
    """
    m = hi - lo
    if m <= BLOCK:
        b = f[:, lo:hi] - dt * y[:, lo:hi]
        for row, inv_row, b_row in zip(y, inv, b):
            row[lo:hi] = np.convolve(inv_row[:m], b_row)[:m]
        return
    mid = lo + m // 2
    _solve_span(y, f, K, inv, dt, lo, mid, top, kernel_spectra)
    size = _fft_size(m)  # the middle product: no wrap-around onto mid-lo .. m-1
    rows = max(1, top // size)
    kernel = kernel_spectra.get(m)
    # one batch holds every row, and a later span reads it (not the root's)
    if kernel is None and len(y) * size <= top and m < y.shape[1] - 1:
        kernel = kernel_spectra[m] = np.fft.rfft(K[:, :m], size)
    for r in range(0, len(y), rows):
        spectrum = np.fft.rfft(y[r : r + rows, lo:mid], size)
        if kernel is None:
            spectrum *= np.fft.rfft(K[r : r + rows, :m], size)
        else:
            spectrum *= kernel
        y[r : r + rows, mid:hi] += np.fft.irfft(spectrum, size)[:, mid - lo : m]
    _solve_span(y, f, K, inv, dt, mid, hi, top, kernel_spectra)


# ---------------------------------------------------------------------------
# Product quadrature against exponential weights
# ---------------------------------------------------------------------------
#
# The target integrals are
#
#     (f * w_k)(t) = int_0^t f(s) (t-s)^k e^{-mu2 (t-s)} / k! ds
#
# with f piecewise linear on the grid. Every weight is a combination of the
# exact per-cell moments
#
#     A_k(j) = int_{(j-1) dt}^{j dt} u^k e^{-mu2 u} du.
#
# One operand against the degree-0 weight, for any sign of mu2, has closed
# forms: every cell's weights are those of the first cell times
# e^{-mu2 (j-1) dt}, so its quadrature is a first-order recursion in its
# cells' left values and slopes (`convolve_exp_stack`). The series route
# asks instead for a stack of operands, degree 0 included, and weights each
# node value by the moment of its hat function (product integration in its
# single-weight form), a discrete convolution per degree. All its moments
# come from one table per (mu2, grid) holding every degree up to the
# stack's top: the incomplete gamma integral at the top degree, stepped
# down by its positive recurrence, in numpy alone (`_moment_table`), built
# once per rate in each stacked call. The two share no weights.


def _first_cell_weights(mu2: float, dt: float) -> tuple:
    """a0 = int_0^dt e^{-mu2 v} dv and b0 = int_0^dt (dt - v) e^{-mu2 v} dv,
    the weights of the nearest cell's left value and slope, for any sign of
    the rate.

    For |mu2*dt| >= 1/2 the closed forms are stable; below that the
    subtractions cancel, so a short series in x = mu2*dt takes over.
    """
    x = mu2 * dt
    if abs(x) >= 0.5:
        a0 = -np.expm1(-x) / mu2
        return a0, (dt - a0) / mu2
    # p1 = int_0^1 e^{-x v} dv and p2 = int_0^1 v e^{-x v} dv
    p1 = 0.0
    p2 = 0.0
    term = 1.0
    for m in range(30):
        p1 += term / (m + 1.0)
        p2 += term / (m + 2.0)
        term *= -x / (m + 1.0)
        if abs(term) < 1e-20:
            break
    return dt * p1, dt * dt * (p1 - p2)


# Largest |mu2| L dt of a block of L cells in `convolve_exp_stack`: its tilt
# factors e^{+-mu2 l dt}, l < L, lie within e^{+-TILT_SPAN}, normal doubles,
# and the rounding of a factor's argument costs it at most about
# TILT_SPAN * eps / 2 of relative accuracy.
TILT_SPAN = 30.0


def convolve_exp_stack(f: np.ndarray, grid: TimeGrid, rates) -> np.ndarray:
    """Row r is (f * e)(t), e(u) = e^{-mu2 u} and mu2 = rates[r], exact in
    the exponential factor for any sign of the rate; f (nodes,) is one
    operand, piecewise linear between its samples.

    At node i, the cell of f starting at node j < i (its left value f_j
    and slope s_j) has the weights (a0, b0) of `_first_cell_weights` times
    e^{-mu2 (i-1-j) dt}, so the quadrature is exactly the recursion

        out_i = e^{-mu2 dt} out_{i-1} + a0 f_{i-1} + b0 s_{i-1},  out_0 = 0,

    evaluated in O(nodes) per row with no FFT. The cells are cut into
    blocks of L, |mu2| L dt <= TILT_SPAN. Inside a block the recursion is a
    prefix sum of the terms tilted by e^{mu2 l dt}, untilted afterwards. The
    value at each block's first node (its carry) follows the same recursion
    one level up, c_{b+1} = e^{-mu2 L dt} c_b + (block b's end value from
    zero), summed by recursive doubling until the ratio's power underflows.
    The round-off of a row is thus relative to its running size for either
    sign of the rate, where an FFT's is absolute: about eps times the
    largest weight, e^{|mu2| T} for a negative rate. Each rate allocates
    three buffers of about one row (the lags, one tilt and the blocks) and
    uses its output row as scratch. Raises NumericalError if a row
    overflows.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    n, dt = grid.size, grid.dt
    cells = n - 1
    slopes = np.diff(f)
    slopes /= dt
    out = np.zeros((len(rates), n))
    for row, mu2 in zip(out, rates):
        a0, b0 = _first_cell_weights(mu2, dt)
        x = abs(mu2) * dt
        blocks = 1 if x * cells <= TILT_SPAN else -(-cells // max(1, int(TILT_SPAN / x)))
        size = -(-cells // blocks)  # L, cells per block
        lags = np.arange(size, dtype=float)
        lags *= dt
        tilt = np.multiply(lags, mu2)
        work = np.zeros((blocks, size))  # the tail of the last block stays 0
        terms = work.reshape(-1)[:cells]
        np.multiply(f[:-1], a0, out=terms)
        terms += np.multiply(slopes, b0, out=row[1:])  # row[1:] is scratch until the end
        work *= np.exp(tilt, out=tilt)
        np.cumsum(work, axis=1, out=work)
        untilt = np.exp(np.multiply(lags, -mu2, out=tilt), out=tilt)
        # carry[b] is out at node b L: first each block's end value from
        # zero, then the sum of the older ones, each decayed to node b L
        carry = np.zeros(blocks)
        np.multiply(work[:-1, -1], untilt[-1], out=carry[1:])
        shift = 1
        while shift < blocks:
            power = np.exp(-mu2 * (dt * size * shift))  # e^{-mu2 L dt}^shift
            if power == 0.0:
                break
            carry[shift:] += power * carry[:-shift]
            shift *= 2
        work += np.exp(-mu2 * dt) * carry[:, None]
        work *= untilt
        row[1:] = terms
    check_finite(out)
    return out


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


def convolve_exp_monomial_stack(
    f: np.ndarray, grid: TimeGrid, rates, terms
) -> np.ndarray:
    """Row r is sum_{k < terms[r]} (f_k * w_k)(t), w_k(u) = u^k e^{-mu2 u} / k!
    and mu2 = rates[r], exact in every w_k.

    f is a stack of two or more operands (degrees, nodes), operand k
    against the weight of degree k, each piecewise linear between its
    samples; one operand alone is `convolve_exp_stack`. Each rate has its
    own term count, from 1 to the number of operands, and its row sums
    that many leading operands. Every degree reads the rate's
    `_moment_table`, so every rate must be positive.

    Each node value is weighted by the moment of its hat function: cell j
    (lags t_{j-1} to t_j) gives its node at lag t_{j-1} the weight
    left_k(j) = (t_j A_k(j) - A_{k+1}(j)) / dt and its node at lag t_j the
    weight right_k(j) = A_k(j) - left_k(j), so the node at lag m carries
    omega_k(m) = right_k(m) + left_k(m+1) (omega_k(0) = left_k(1)). The
    convolution f_k * omega_k also gives node 0 the weight left_k(i+1) of
    the cell past the horizon t_i, which is subtracted:

        out_i = sum_k [(f_k * omega_k)_i - f_k(0) left_k(i+1)] / k!,  out_0 = 0.

    The convolutions are FFTs of size _fft_size(2 nodes - 1), at most
    max(1, FFT_BATCH // size) rows per rfft call. Each operand's spectrum is
    transformed once per call. For each rate, the products of its weight
    spectra with its leading operands' are summed in one accumulator with
    one inverse FFT, and its moment table goes up to its term count. A row
    depends on its own rate and count only. Raises NumericalError if a row
    overflows.
    """
    if np.ndim(f) != 2 or len(f) < 2:
        raise ValueError("an operand stack has shape (degrees >= 2, nodes)")
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    degrees = len(f)
    if len(terms) != len(rates) or not all(1 <= t <= degrees for t in terms):
        raise ValueError("one term count per rate, each from 1 to the operand count")
    if np.any(rates <= 0):
        raise NumericalError(
            "monomial-weight quadrature with k >= 1 requires a positive rate; "
            "use the direct resolvent route for nonpositive rates"
        )
    n, dt = grid.size, grid.dt
    size = _fft_size(2 * n - 1)
    batch = max(1, FFT_BATCH // size)
    blocks = [slice(lo, lo + batch) for lo in range(0, degrees, batch)]
    factorials = np.array([float(math.factorial(k)) for k in range(degrees)])
    # Per block of operands, the spectra of their node values, each scaled by 1/k!.
    spectra = []
    for rows in blocks:
        spectrum = np.fft.rfft(f[rows], size)
        spectrum /= factorials[rows, None]
        spectra.append(spectrum)
    f0 = f[:, 0] / factorials  # f_k(0) / k!
    lag = np.arange(1, n, dtype=float) * dt
    out = np.empty((len(rates), n))
    for row, mu2, count in zip(out, rates, terms):
        table = _moment_table(mu2, grid, count)
        # left_k(n), past the table, would enter omega_k(n-1) and edge[n-1]
        # alike and cancel, so both leave it out
        edge = np.zeros(n)  # sum_k f_k(0) left_k(i+1) / k!
        total = np.zeros(size // 2 + 1, dtype=complex)
        for rows, spectrum in zip(blocks, spectra):
            ks = range(count)[rows]
            if not ks:
                break
            omega = np.zeros((len(ks), n))
            for w, k in zip(omega, ks):
                Ak, Ak1 = table[k : k + 2]
                left = lag * Ak
                left -= Ak1
                left /= dt
                np.subtract(Ak, left, out=w[1:])
                w[:-1] += left
                edge[:-1] += f0[k] * left
            product = np.fft.rfft(omega, size)
            product *= spectrum[: len(ks)]
            total += product.sum(axis=0)
        row[:] = np.fft.irfft(total, size)[:n]
        row -= edge
    out[:, 0] = 0.0
    check_finite(out)
    return out


def convolve_exp_monomial(f: SampledFunction, rate: float) -> SampledFunction:
    """(f * e)(t) with e(u) = e^{-rate u}, exact in the exponential factor,
    for any sign of the rate: `convolve_exp_stack` for one rate."""
    out = convolve_exp_stack(f.values, f.grid, rate)
    return SampledFunction(f.grid, out[0])


def end_pairing(f: SampledFunction, g: SampledFunction) -> float:
    """Trapezoid value of int_0^T f(s) g(T - s) ds (the last convolve node)."""
    grid = require_same_grid(f, g)
    a = f.values
    b = g.values[::-1]
    raw = float(np.dot(a, b))
    return grid.dt * (raw - 0.5 * (a[0] * b[0] + a[-1] * b[-1]))
