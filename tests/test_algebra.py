"""Convolution quadrature, the blocked Volterra solve, and the fitted
exponential rules.

Oracles here are hand-computed convolutions and ODE solutions, a
test-local per-step march of the trapezoid scheme for the blocked solve,
and a test-local term-by-term series for the product quadrature over an
operand stack; the grid refinement checks pin the second-order accuracy
that the dynamics tests rely on later. A stack of rows, in the Volterra
solve and in the product quadrature, must give the bits of one call per
row.
"""

import gc
import math
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memheat import (
    ExpSumKernel,
    NumericalError,
    PolynomialKernel,
    SampledFunction,
    TimeGrid,
)
from memheat.algebra import (
    BLOCK,
    FFT_BATCH,
    _block_inverses,
    _fft_size,
    _moment_table,
    convolve,
    convolve_exp_monomial,
    convolve_exp_monomial_stack,
    convolve_exp_stack,
    end_pairing,
    volterra_solve,
    volterra_solve_stack,
)
from memheat.dynamics import mode_equations
from memheat.modes import dirichlet_modes_1d
from memheat.resolvents import mode_kernels, resolvent_of

GRID = TimeGrid(1.0, 1000)


def sampled(fn, grid=GRID):
    return SampledFunction.from_callable(grid, fn)


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------


def test_convolve_ones_is_t():
    one = sampled(np.ones_like)
    out = convolve(one, one)
    # 1*1 = t is exact for the trapezoid rule (linear integrand)
    assert np.max(np.abs(out.values - GRID.nodes)) < 1e-14
    assert out.values[0] == 0.0


def test_convolve_t_with_one_is_exact():
    # for fixed t the integrand u -> (t - u) is linear, so trapezoid is exact
    t = sampled(lambda s: s)
    one = sampled(np.ones_like)
    out = convolve(t, one)
    assert np.max(np.abs(out.values - GRID.nodes**2 / 2)) < 1e-14


def test_convolve_square_with_one_halving_ratio():
    def err_at(grid):
        sq = sampled(lambda s: s**2, grid)
        one = sampled(np.ones_like, grid)
        return np.max(np.abs(convolve(sq, one).values - grid.nodes**3 / 3))

    err = err_at(GRID)
    assert err < 1e-6
    ratio = err / err_at(TimeGrid(GRID.horizon, 2 * GRID.steps))
    assert 3.5 < ratio < 4.5


def test_convolve_exponentials_oracle():
    # e^{-t} * e^{-2t} = e^{-t} - e^{-2t}
    f = sampled(lambda s: np.exp(-s))
    g = sampled(lambda s: np.exp(-2.0 * s))
    exact = np.exp(-GRID.nodes) - np.exp(-2.0 * GRID.nodes)
    assert np.max(np.abs(convolve(f, g).values - exact)) < 1e-6


def test_convolve_commutes_bitwise():
    rng = np.random.default_rng(7)
    f = SampledFunction(GRID, rng.standard_normal(GRID.size))
    g = SampledFunction(GRID, rng.standard_normal(GRID.size))
    assert np.array_equal(convolve(f, g).values, convolve(g, f).values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=3 * BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_convolve_commutes_bitwise_on_any_grid(steps, seed, f_exp, g_exp):
    # odd and even node counts, operands of unrelated magnitudes
    grid = TimeGrid(1.0, steps)
    rng = np.random.default_rng(seed)
    f = SampledFunction(grid, 10.0**f_exp * rng.standard_normal(grid.size))
    g = SampledFunction(grid, 10.0**g_exp * rng.standard_normal(grid.size))
    assert convolve(f, g).values.tobytes() == convolve(g, f).values.tobytes()


def test_convolve_associates_to_quadrature_error():
    rng = np.random.default_rng(11)
    f = SampledFunction(GRID, rng.standard_normal(GRID.size))
    g = SampledFunction(GRID, rng.standard_normal(GRID.size))
    h = SampledFunction(GRID, rng.standard_normal(GRID.size))
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    # associativity holds only up to O(dt^2); with dt = 1e-3 and O(1) data
    # the gap must be far below the function scale but need not be round-off
    assert (left - right).sup_norm() < 1e-4


def test_convolve_power():
    # repeated convolution of 1 with itself: 1^{*k}(t) = t^{k-1} / (k-1)!
    one = sampled(np.ones_like)
    t = GRID.nodes
    two = convolve(one, one)
    three = convolve(two, one)
    four = convolve(three, one)
    assert np.max(np.abs(two.values - t)) < 1e-14
    assert np.max(np.abs(three.values - t**2 / 2)) < 1e-6
    assert np.max(np.abs(four.values - t**3 / 6)) < 1e-6


def test_convolve_power_induction_bound():
    # sup |f^{*k}| <= M^k T^{k-1} / (k-1)! -- the bound behind series truncation
    rng = np.random.default_rng(23)
    f = SampledFunction(GRID, rng.uniform(-1.0, 1.0, GRID.size))
    M = f.sup_norm()
    power = f
    for k in range(1, 7):
        bound = M**k * GRID.horizon ** (k - 1) / math.factorial(k - 1)
        assert power.sup_norm() <= bound * (1.0 + 1e-12)
        power = convolve(power, f)


# ---------------------------------------------------------------------------
# volterra_solve
# ---------------------------------------------------------------------------


def march(kernel, rhs):
    """Reference: the trapezoid scheme marched one step at a time, O(n^2)."""
    K, f, dt = kernel.values, rhs.values, kernel.grid.dt
    pivot = 1.0 + 0.5 * dt * K[0]
    y = np.empty_like(f)
    y[0] = f[0]
    for i in range(1, len(f)):
        acc = 0.5 * K[i] * y[0]
        if i > 1:
            acc += np.dot(K[i - 1 : 0 : -1], y[1:i])
        y[i] = (f[i] - dt * acc) / pivot
    return y


def test_volterra_zero_kernel_is_identity():
    rng = np.random.default_rng(3)
    grid = TimeGrid(1.0, 3 * BLOCK + 5)  # several blocks and FFT history steps
    rhs = SampledFunction(grid, rng.standard_normal(grid.size))
    out = volterra_solve(SampledFunction.zeros(grid), rhs)
    assert np.array_equal(out.values, rhs.values)


coefficients = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
kernels = st.one_of(
    st.lists(
        st.tuples(coefficients, st.floats(min_value=0.0, max_value=5.0)),
        min_size=1,
        max_size=3,
    ).map(ExpSumKernel),
    st.lists(coefficients, min_size=1, max_size=4).map(PolynomialKernel),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kernels,
    st.sampled_from(
        [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 256, 257, 1000, 1024, 1025]
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# the top span [1, n) has m = steps nodes: at 256 and 1024 the middle
# product's circular size equals m, at 257 and 1025 it is 2m - 2
@example(ExpSumKernel([(2.0, 1.0)]), 256, 1)
@example(ExpSumKernel([(2.0, 1.0)]), 257, 2)
@example(PolynomialKernel([1.0, -3.0]), 1024, 3)
@example(PolynomialKernel([1.0, -3.0]), 1025, 4)
def test_volterra_blocked_matches_march(kernel, steps, seed):
    grid = TimeGrid(1.0, steps)
    rhs = SampledFunction(grid, np.random.default_rng(seed).standard_normal(grid.size))
    m = SampledFunction(grid, kernel(grid.nodes))
    y = volterra_solve(m, rhs).values
    ref = march(m, rhs)
    assert np.max(np.abs(y - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_volterra_leaves_no_cyclic_garbage():
    # the recursion must not keep its work arrays alive in reference cycles
    one = SampledFunction(GRID, np.ones(GRID.size))
    gc.collect()
    gc.disable()
    try:
        volterra_solve(one, one)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, memheat.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_volterra_constant_kernel_oracle():
    # y + 1*y = 1  =>  y(t) = e^{-t}
    one = sampled(np.ones_like)
    y = volterra_solve(one, one)
    assert np.max(np.abs(y.values - np.exp(-GRID.nodes))) < 1e-6


def test_resolvent_kernel_helper():
    # the resolvent q of a kernel m solves q = m - m*q; for m = 1, q = e^{-t}
    one = sampled(np.ones_like)
    q = volterra_solve(one, one)
    assert np.max(np.abs(q.values - np.exp(-GRID.nodes))) < 1e-6


def test_volterra_cosine_oracle():
    # y + t*y = 1  =>  y(t) = cos t   (differentiating twice gives y'' = -y)
    t_fn = sampled(lambda s: s)
    one = sampled(np.ones_like)
    y = volterra_solve(t_fn, one)
    assert np.max(np.abs(y.values - np.cos(GRID.nodes))) < 1e-6


def test_volterra_second_order():
    one = sampled(np.ones_like)
    err = np.max(np.abs(volterra_solve(one, one).values - np.exp(-GRID.nodes)))
    fine = TimeGrid(1.0, 2000)
    onef = sampled(np.ones_like, fine)
    err2 = np.max(np.abs(volterra_solve(onef, onef).values - np.exp(-fine.nodes)))
    assert 3.5 < err / err2 < 4.5


def test_volterra_pivot_guard():
    # dt * K(0) / 2 = -1 makes the pivot of the trapezoid scheme vanish
    grid = TimeGrid(1.0, 1000)
    k = SampledFunction(grid, np.full(grid.size, -2.0 / grid.dt))
    with pytest.raises(NumericalError):
        volterra_solve(k, SampledFunction.zeros(grid))


def solve_rows(kernels, rhs, dt):
    """One `volterra_solve` per row: what a stacked solve must equal."""
    grid = TimeGrid(dt * (rhs.shape[1] - 1), rhs.shape[1] - 1)
    return [
        volterra_solve(SampledFunction(grid, K), SampledFunction(grid, f)).values
        for K, f in zip(kernels, rhs)
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.one_of(
        st.sampled_from([2, 3, BLOCK, BLOCK + 1, BLOCK + 2]),
        st.integers(min_value=2, max_value=3000),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_volterra_stack_matches_one_solve_per_row(rows, nodes, seed):
    # each row its own kernel scale and sign; one row has a zero kernel
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2, 2, (rows, 1))
    kernels = scales * rng.standard_normal((rows, nodes))
    zero = rng.integers(rows)
    kernels[zero] = 0.0
    rhs = rng.standard_normal((rows, nodes))
    dt = 1.0 / (nodes - 1)
    y = volterra_solve_stack(kernels, rhs, dt)
    for row, alone in zip(y, solve_rows(kernels, rhs, dt)):
        assert row.tobytes() == alone.tobytes()
    assert y[zero].tobytes() == rhs[zero].tobytes()


def solve_per_span(kernels, rhs, dt):
    """The blocked solve with every span transforming its own kernel prefix
    K[:, :m], no spectrum shared between spans of one length: the recursion
    `volterra_solve_stack` must reproduce bit for bit. Each row's base block
    and inverse come from the solver's own `_block_inverses`."""
    n = rhs.shape[1]
    pivots = 1.0 + 0.5 * dt * kernels[:, 0]
    blocks, inverse = _block_inverses(kernels, rhs, pivots, dt)
    assert blocks.min() > 0  # every kernel here is nonzero
    y = np.empty(rhs.shape)
    y[:, 0] = rhs[:, 0]
    np.multiply(kernels[:, 1:], 0.5, out=y[:, 1:])
    y[:, 1:] *= y[:, :1]
    top = 1 << (n - 2).bit_length()
    for block in set(blocks.tolist()):
        rows = blocks == block
        spectra = np.fft.rfft(inverse[rows, :block], 2 * block)
        part = y[rows]
        _span_per_span(part, rhs[rows], kernels[rows], spectra, block, dt, 1, n, top)
        y[rows] = part
    return y


def _span_per_span(y, f, K, spectra, block, dt, lo, hi, top):
    m = hi - lo
    if m <= block:
        b = np.fft.rfft(f[:, lo:hi] - dt * y[:, lo:hi], 2 * block)
        b *= spectra
        y[:, lo:hi] = np.fft.irfft(b, 2 * block)[:, :m]
        return
    mid = lo + m // 2
    _span_per_span(y, f, K, spectra, block, dt, lo, mid, top)
    size = 1 << (m - 1).bit_length()
    rows = max(1, top // size)
    for r in range(0, len(y), rows):
        spectrum = np.fft.rfft(y[r : r + rows, lo:mid], size)
        spectrum *= np.fft.rfft(K[r : r + rows, :m], size)
        y[r : r + rows, mid:hi] += np.fft.irfft(spectrum, size)[:, mid - lo : m]
    _span_per_span(y, f, K, spectra, block, dt, mid, hi, top)


@pytest.mark.parametrize("rows", [1, 3, 12])
@pytest.mark.parametrize("nodes", [1000, 3 * BLOCK + 6, 16000, 64000])
def test_volterra_kernel_spectra_shared_per_span_length(rows, nodes, monkeypatch):
    # every span of one length transforms the same kernel prefix, so the
    # solve transforms it once where all rows fit in one widest transform;
    # n - 1 odd (3 BLOCK + 5, 15,999 and 63,999) splits a level into spans
    # of two lengths
    rng = np.random.default_rng(nodes + rows)
    kernels = 10.0 ** rng.uniform(-2, 1, (rows, 1)) * rng.standard_normal((rows, nodes))
    rhs = rng.standard_normal((rows, nodes))
    dt = 1.0 / (nodes - 1)
    transforms = []
    rfft = np.fft.rfft

    def counted(a, n=None, *args, **kwargs):
        transforms.append(len(np.atleast_2d(a)))
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    reference = solve_per_span(kernels, rhs, dt)
    per_span = sum(transforms)
    transforms.clear()
    y = volterra_solve_stack(kernels, rhs, dt)
    assert y.tobytes() == reference.tobytes()
    # 1,000 nodes are one base block, with no history; at 3,078 no length
    # recurs among the spans whose spectra fit; at 16,000 the lengths of
    # about 4,000 and 2,000 recur, and 12 rows outgrow the widest transform
    # at every level; at 64,000 the spans of about 4,000 fit 12 rows too
    shared = nodes == 64000 or (nodes == 16000 and rows < 12)
    assert (sum(transforms) < per_span) == shared
    assert sum(transforms) <= per_span


def march_longdouble(K, f, dt):
    """The trapezoid scheme marched one step at a time in np.longdouble."""
    K, f, dt = K.astype(np.longdouble), f.astype(np.longdouble), np.longdouble(dt)
    pivot = 1 + dt * K[0] / 2
    y = np.empty_like(f)
    y[0] = f[0]
    for i in range(1, len(f)):
        acc = K[i] * y[0] / 2 + np.dot(K[i - 1 : 0 : -1], y[1:i])
        y[i] = (f[i] - dt * acc) / pivot
    return y


@pytest.mark.parametrize("steps", [200, 400])
def test_volterra_growing_row_gets_smaller_blocks_and_keeps_every_node(steps):
    # y + K*y = 1 with K = -30 grows like e^{30 t}, by 1e13 over T = 1, and
    # so does its block inverse. An FFT block's round-off is relative to its
    # largest term: one block over the whole row put its first nodes off by
    # several times their own size. The decaying rows beside it keep the
    # largest block, and each row has the bits of its solo solve.
    grid = TimeGrid(1.0, steps)
    t = grid.nodes
    kernels = np.array([np.full(grid.size, -30.0), np.ones(grid.size), np.exp(-t) + t])
    rhs = np.array([np.ones(grid.size), np.cos(3.0 * t), np.ones(grid.size)])
    y = volterra_solve_stack(kernels, rhs, grid.dt)
    for row, alone in zip(y, solve_rows(kernels, rhs, grid.dt)):
        assert row.tobytes() == alone.tobytes()
    pivots = 1.0 + 0.5 * grid.dt * kernels[:, 0]
    blocks, _ = _block_inverses(kernels, rhs, pivots, grid.dt)
    assert blocks[0] < blocks[1] == blocks[2] == min(BLOCK, _fft_size(steps))
    ref = march_longdouble(kernels[0], rhs[0], grid.dt)
    assert np.all(np.abs(y[0] - ref) <= 1e-12 * np.abs(ref))


def test_volterra_onset_from_exact_zeros_keeps_full_blocks():
    # f = 0 up to t = 0.75 and 1 after, kernel 1: every ratio test reads the
    # onset as unbounded growth, which put B at 1 and solved 100,001 nodes
    # one at a time (3.6 s); a chunk of exact zeros passes whatever follows
    for steps in (100000, 3000):
        grid = TimeGrid(1.0, steps)
        kernels = np.ones((1, grid.size))
        rhs = (grid.nodes > 0.75).astype(float)[None]
        pivots = 1.0 + 0.5 * grid.dt * kernels[:, 0]
        blocks, _ = _block_inverses(kernels, rhs, pivots, grid.dt)
        assert blocks.tolist() == [BLOCK]
    # the full block keeps the solve at round-off (7.8e-16 measured)
    y = volterra_solve_stack(kernels, rhs, grid.dt)
    ref = march_longdouble(kernels[0], rhs[0], grid.dt)
    assert np.max(np.abs(y[0] - ref)) <= 1e-14


def march_triple(grid):
    """Resolvent triple and 8 modes of the two-term exp_sum kernel of the
    benchmark's march workload."""
    rt = resolvent_of(ExpSumKernel([(1.0, 1.0), (0.5, 5.0)]), grid)
    return rt, dirichlet_modes_1d(8, rt.gain)


@pytest.fixture(scope="module")
def march_modes():
    """Kernels z and right-hand sides k of those 8 modes at 16,000 steps,
    one mode at a time."""
    grid = TimeGrid(1.0, 16000)
    rt, modes = march_triple(grid)
    zero = SampledFunction.zeros(grid)
    z = np.array([mode_kernels(rt, m.shifted_rate)[0] for m in modes])
    k = np.array([mode_equations([m], rt, [1.0 / m.index], zero)[1][0] for m in modes])
    return grid, z, k


def test_volterra_stack_matches_one_solve_per_row_at_march_size(march_modes):
    # FFTs of several rows must give each row the bits of its own transform;
    # a numpy whose batched pocketfft differs fails here, not only in a hash
    grid, z, k = march_modes
    y = volterra_solve_stack(z, k, grid.dt)
    for row, alone in zip(y, solve_rows(z, k, grid.dt)):
        assert row.tobytes() == alone.tobytes()


def test_quadrature_stack_matches_one_call_per_row_at_march_size(march_modes):
    # the z and k stacks of 8 modes at 16,001 nodes, one quadrature each,
    # against one quadrature per mode
    grid, z, k = march_modes
    rt, modes = march_triple(grid)
    xis = [1.0 / m.index for m in modes]
    z_stack, k_stack = mode_equations(modes, rt, xis, SampledFunction.zeros(grid))
    assert z_stack.tobytes() == z.tobytes()
    assert k_stack.tobytes() == k.tobytes()


def _traced_peak_mb(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_volterra_stack_memory_stays_near_one_output(march_modes):
    # the output stack is 1 MB; an FFT call takes only as many rows as fit
    # in the widest single-row transform, and the history lives in the output
    grid, z, k = march_modes
    assert _traced_peak_mb(lambda: volterra_solve_stack(z, k, grid.dt)) < 3.0
    kernel, rhs = SampledFunction(grid, z[0]), SampledFunction(grid, k[0])
    assert _traced_peak_mb(lambda: volterra_solve(kernel, rhs)) <= 1.25


def test_volterra_one_row_keeps_no_root_spectrum(march_modes):
    # the root span [1, n) is the only span of its length, so its kernel
    # spectrum is not kept through the right half: past the output, the peak
    # is the root's own transforms, about three widest spectra (four if
    # kept). The first solve warms the FFT plans, which a cold call adds.
    grid, z, k = march_modes
    spectrum = (_fft_size(grid.size - 1) // 2 + 1) * 16 / 2**20

    def solve():
        return volterra_solve_stack(z[:1], k[:1], grid.dt)

    solve()
    assert _traced_peak_mb(solve) <= z[0].nbytes / 2**20 + 3.5 * spectrum


def test_quadrature_stack_memory_stays_near_its_output(march_modes):
    # the z and k stacks are 1 MB each; past them a fill holds the shared
    # operand's two spectra and one batch (one row at 16,001 nodes)
    grid, _, _ = march_modes
    rt, modes = march_triple(grid)
    xis = [1.0 / m.index for m in modes]
    zero = SampledFunction.zeros(grid)
    assert _traced_peak_mb(lambda: mode_equations(modes, rt, xis, zero)) < 3.75


def test_volterra_stack_checks_every_row():
    grid = TimeGrid(1.0, 1000)
    rhs = np.ones((3, grid.size))
    kernels = np.ones((3, grid.size))
    kernels[1] = -2.0 / grid.dt  # this row's pivot 1 + dt*K(0)/2 vanishes
    with pytest.raises(NumericalError, match="Volterra step is degenerate"):
        volterra_solve_stack(kernels, rhs, grid.dt)
    kernels[1] = -1000.0  # y' = 1000 y: e^1000 overflows in this row only
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="samples must all be finite"):
            volterra_solve_stack(kernels, rhs, grid.dt)


# ---------------------------------------------------------------------------
# exponentially fitted convolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu2", [1.0, 100.0, 1e4, 0.2, -3.0])
def test_convolve_exp_linear_exactness(mu2):
    # the fitted rule integrates (affine f) x e^{-mu2 s} exactly per cell,
    # so f(t) = 2 + 3t has a closed-form convolution against the exponential
    f = sampled(lambda s: 2.0 + 3.0 * s)
    out = convolve_exp_monomial(f, mu2)
    t = GRID.nodes
    if mu2 == 0.0:
        exact = 2.0 * t + 1.5 * t**2
    else:
        e = np.exp(-mu2 * t)
        # int_0^t (2 + 3(t-u)) e^{-mu2 u} du
        exact = (2.0 + 3.0 * t) / mu2 - 3.0 * t / mu2 - (2.0 / mu2 - 3.0 / mu2**2) * e + (
            -3.0 / mu2**2
        )
        exact = (2.0 / mu2) * (1 - e) + 3.0 * (mu2 * t - 1 + e) / mu2**2
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(out.values - exact)) / scale < 5e-13


def test_convolve_exp_matches_plain_convolve_for_smooth_data():
    f = sampled(lambda s: np.sin(s))
    e = sampled(lambda s: np.exp(-0.7 * s))
    fitted = convolve_exp_monomial(f, 0.7)
    plain = convolve(f, e)
    assert (fitted - plain).sup_norm() < 1e-6


def test_convolve_exp_stiff_rate_stays_accurate():
    # at mu2 = 1e4 a plain trapezoid misses the boundary layer entirely;
    # the fitted rule keeps the O(dt^2) error of the smooth factor
    mu2 = 1e4
    f = sampled(lambda s: np.cos(s))
    out = convolve_exp_monomial(f, mu2)
    t = GRID.nodes
    # oracle: int cos(t-u) e^{-mu2 u} du = [mu2 cos t ... ] exact form
    exact = (
        mu2 * np.cos(t) + np.sin(t) - mu2 * np.exp(-mu2 * t)
    ) / (1.0 + mu2**2)
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_convolve_exp_monomial_quadratic_weight():
    # the rule is exact on piecewise-linear data, so affine operands
    # f_k(s) = a_k + b_k s in every degree up to the quadratic weight and
    # past it, none zero at s = 0 (the node whose hat function the horizon
    # cuts off), meet the closed form
    #     int_0^t f_k(t - u) u^k e^{-mu2 u} du = (a_k + b_k t) C_k(t) - b_k C_{k+1}(t),
    # C_k(t) = gamma(k + 1, mu2 t) / mu2^{k+1}, at 50 digits. The gap measured
    # at most 4.2e-16 of the row's sup; leaving out the cell past the horizon
    # put it at 6.6e-3.
    grid = TimeGrid(1.0, 200)
    rates = [3.0, 40.0]
    a = [1.5, -2.0, 0.75, 3.0]
    b = [0.5, 2.5, -1.25, 4.0]
    operands = np.array([ak + bk * grid.nodes for ak, bk in zip(a, b)])
    out = convolve_exp_monomial_stack(operands, grid, rates, [len(a)] * len(rates))
    for row, mu2 in zip(out, rates):
        exact = []
        with mpmath.workdps(50):
            mu = mpmath.mpf(mu2)
            for t in map(mpmath.mpf, grid.nodes):
                C = [mpmath.gammainc(k + 1, 0, mu * t) / mu ** (k + 1) for k in range(5)]
                exact.append(
                    sum(
                        ((ak + bk * t) * C[k] - bk * C[k + 1]) / math.factorial(k)
                        for k, (ak, bk) in enumerate(zip(a, b))
                    )
                )
        exact = np.array(exact, dtype=float)
        assert np.max(np.abs(row - exact)) <= 2e-15 * np.max(np.abs(exact))


def quadrature_rates(rng, rows, positive):
    """Rates of a stack from 1e-3 to 1e4 in size, of either sign unless
    `positive` (a stack of more than one operand needs positive rates)."""
    rates = 10.0 ** rng.uniform(-3, 4, rows)
    if not positive:
        rates *= rng.choice([-1e-2, 1.0], rows)
    return rates


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=3 * (FFT_BATCH // 4096) + 1),
    st.one_of(
        st.sampled_from([2, 3, 1025, 2048, 2049, 3000]),
        st.integers(min_value=2, max_value=3000),
    ),
    st.one_of(st.just(0), st.integers(min_value=2, max_value=2 * (FFT_BATCH // 4096) + 1)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quadrature_stack_matches_one_call_per_row(rows, nodes, degrees, seed):
    # past 1,024 nodes a batched FFT call takes 8 or 4 rows, so the operand
    # counts fall on both sides of it; a rate repeats. Degrees 0 means one
    # operand of shape (nodes,), the exponential recursion, any other count
    # a stack of that many, each rate with its own term count.
    rng = np.random.default_rng(seed)
    grid = TimeGrid(float(rng.uniform(0.1, 2.0)), nodes - 1)
    rates = quadrature_rates(rng, rows, positive=degrees > 1)
    rates[rows // 2] = rates[0]
    f = rng.standard_normal((degrees, nodes) if degrees else nodes)
    if degrees:
        terms = rng.integers(1, degrees + 1, rows)
        terms[0] = degrees
        out = convolve_exp_monomial_stack(f, grid, rates, terms)
    else:
        out = convolve_exp_stack(f, grid, rates)
    assert out.shape == (rows, nodes)
    for r, (row, mu2) in enumerate(zip(out, rates)):
        if f.ndim == 1:  # the bits of the one-row call
            alone = convolve_exp_monomial(SampledFunction(grid, f), mu2).values
            assert row.tobytes() == alone.tobytes()
            continue
        # a row depends on its own rate and count only: the operands past
        # its count, in its last FFT batch or later ones, change no bit
        count = terms[r]
        alone = convolve_exp_monomial_stack(f, grid, [mu2], [count])[0]
        assert row.tobytes() == alone.tobytes()
        if count >= 2:
            leading = convolve_exp_monomial_stack(f[:count], grid, [mu2], [count])[0]
            assert row.tobytes() == leading.tobytes()


def series_by_degree(f, grid, mu2):
    """The series term by term: each degree's quadrature (f_k * w_k) at mu2
    through its own FFTs and inverse FFTs, the weights of every degree read
    from the rate's moment table topped at the stack's top degree, added in
    the time domain in degree order. Returns the sum and the sum of the
    terms' sup norms."""
    n, dt = grid.size, grid.dt
    size = 1 << (2 * n - 2).bit_length()
    lag = np.arange(1, n, dtype=float) * dt
    table = _moment_table(mu2, grid, len(f))
    total = np.zeros(n)
    scale = 0.0
    for k, operand in enumerate(f):
        Ak, Ak1 = table[k : k + 2]
        wa, wb, slopes = np.zeros((3, n))
        wa[1:] = Ak
        np.multiply(lag, Ak, out=wb[1:])
        wb[1:] -= Ak1
        slopes[:-1] = np.diff(operand) / dt
        term = np.zeros(n)
        for w, g in ((wa, operand), (wb, slopes)):
            product = np.fft.rfft(w, size)
            product *= np.fft.rfft(g, size)
            term += np.fft.irfft(product, size)[:n]
        term /= float(math.factorial(k))
        term[0] = 0.0
        total += term
        scale += np.max(np.abs(term))
    return total, scale


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quadrature_stack_matches_the_series_by_degree(degrees, nodes, rows, seed):
    # one product quadrature over the operand stack weights each node by
    # its hat function and sums the degrees in frequency space, scaled by
    # 1/k! before the sum; the reference weights node values and cell
    # slopes apart and sums the degrees in the time domain, one inverse FFT
    # per degree and term. With the same moment table, the gap at row r
    # relative to the sum of the terms' sup norms measured at most 1.1e-15
    # over 1,600 draws of this domain, so C = 1e-14. (The other rows, whose
    # operands are not scaled to their rates, read up to 1.7e-13.)
    rng = np.random.default_rng(seed)
    grid = TimeGrid(float(rng.uniform(0.1, 2.0)), nodes - 1)
    rates = quadrature_rates(rng, rows, positive=True)
    r = rng.integers(rows)
    # Operand k is noise over the mass of its weight at rates[r], about
    # min(T^{k+1} / (k+1)!, mu2^{-(k+1)}), so every degree's term counts.
    k = np.arange(degrees)
    log_mass = np.minimum(
        (k + 1) * math.log(grid.horizon) - [math.lgamma(d + 2) for d in k],
        -(k + 1) * math.log(rates[r]),
    )
    f = rng.standard_normal((degrees, nodes)) * np.exp(-log_mass)[:, None]
    out = convolve_exp_monomial_stack(f, grid, rates, [degrees] * rows)
    reference, scale = series_by_degree(f, grid, rates[r])
    assert np.max(np.abs(out[r] - reference)) <= 1e-14 * scale


def test_quadrature_stack_checks_every_row(monkeypatch):
    one = np.ones(GRID.size)
    transforms = []
    rfft = np.fft.rfft
    monkeypatch.setattr(
        np.fft, "rfft", lambda *a, **k: transforms.append(1) or rfft(*a, **k)
    )
    with pytest.raises(NumericalError, match="requires a positive rate"):
        convolve_exp_monomial_stack(np.ones((3, GRID.size)), GRID, [1.0, -1.0], [3, 3])
    with pytest.raises(NumericalError, match="requires a positive rate"):
        convolve_exp_monomial_stack(
            np.ones((2, GRID.size)), GRID, [2.0, 0.0, 1.0], [2, 2, 2]
        )
    for single in (one, one[None]):  # one operand is `convolve_exp_stack`
        with pytest.raises(ValueError, match="operand stack"):
            convolve_exp_monomial_stack(single, GRID, [1.0], [1])
    for terms in ([3], [3, 0], [3, 4]):  # one count per rate, 1 to 3 operands
        with pytest.raises(ValueError, match="term count"):
            convolve_exp_monomial_stack(np.ones((3, GRID.size)), GRID, [1.0, 2.0], terms)
    assert transforms == []  # refused before any FFT
    assert convolve_exp_stack(one, GRID, [-1.0, 0.0]).shape == (2, GRID.size)
    assert convolve_exp_stack(one, GRID, []).shape == (0, GRID.size)
    assert transforms == []  # one operand is a recursion, not an FFT


def _reference_cell_moments(mu2, d, grid):
    """Cells of int_0^t u^d e^{-mu2 u} du at 200 bits, and the total at T.

    The edges and the rate are the same doubles the table sees, so only the
    table's own arithmetic is measured.
    """
    with mpmath.workprec(200):
        mu = mpmath.mpf(mu2)
        cum = [
            mpmath.gammainc(d + 1, 0, mu * mpmath.mpf(float(x))) / mu ** (d + 1)
            for x in np.arange(grid.size, dtype=float) * grid.dt
        ]
        cells = np.array([float(b - a) for a, b in zip(cum, cum[1:])])
        return cells, float(cum[-1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.floats(min_value=math.log(1e-6), max_value=math.log(1e4)),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.01, max_value=5.0),
)
@example(math.log(4.4e-6), 2, 60, 0.01)  # d!/mu2^{d+1} overflows at d = 60
@example(math.log(8.87), 0, 60, 1.0)  # degree 0, which the series reads too
def test_cell_moments_match_incomplete_gamma(log_mu2, k, steps, horizon):
    # rows k and k + 1 of the table a one-degree call builds (topped at
    # k + 1) and of a table topped at 61, past the series' tallest (60)
    mu2 = math.exp(log_mu2)
    grid = TimeGrid(horizon, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, not even in unused rows
        tables = (_moment_table(mu2, grid, k + 1), _moment_table(mu2, grid, 61))
    for d in (k, k + 1):
        ref, total = _reference_cell_moments(mu2, d, grid)
        for table in tables:
            assert np.max(np.abs(table[d] - ref)) <= 1e-13 * total


def test_cell_moment_rows_ignore_request_order():
    # a row of an operand stack depends on its own rate and count only, not
    # on the rates whose tables the same call built before it
    grid = TimeGrid(2.0, 300)
    f = np.random.default_rng(3).standard_normal((40, grid.size))
    rates = [7.5, 0.3, 120.0]
    forward = convolve_exp_monomial_stack(f, grid, rates, [40, 3, 25])
    backward = convolve_exp_monomial_stack(f, grid, rates[::-1], [25, 3, 40])
    assert forward.tobytes() == backward[::-1].tobytes()


def test_convolve_exp_negative_rate():
    # growing exponential, k = 0 path: 1 * e^{3s} = (e^{3t} - 1)/3
    out = convolve_exp_monomial(sampled(np.ones_like), -3.0)
    exact = (np.exp(3.0 * GRID.nodes) - 1.0) / 3.0
    assert np.max(np.abs(out.values - exact)) / np.max(exact) < 1e-12


def _exp_recursion_reference(f, grid, mu2):
    """out_i = e^{-mu2 dt} out_{i-1} + a0 f_{i-1} + b0 s_{i-1} at 113 bits.

    The samples, the rate and dt are the same doubles the quadrature sees,
    so only its own arithmetic is measured.
    """
    with mpmath.workprec(113):
        dt, mu = mpmath.mpf(grid.dt), mpmath.mpf(mu2)
        a0 = -mpmath.expm1(-mu * dt) / mu if mu2 else dt
        b0 = (dt - a0) / mu if mu2 else dt * dt / 2
        ratio = mpmath.exp(-mu * dt)
        values = [mpmath.mpf(float(v)) for v in f]
        out = [mpmath.mpf(0)]
        for left, right in zip(values, values[1:]):
            out.append(ratio * out[-1] + a0 * left + b0 * (right - left) / dt)
        return np.array([float(v) for v in out])


@pytest.mark.parametrize(
    "horizon, steps, mu2",
    [
        (2.0, 2000, math.pi**2 - 30.0),  # mode 1 of constant 30: e^{40} at T
        (2.0, 2000, 4 * math.pi**2 - 30.0),
        (1.0, 16000, 64 * math.pi**2 - 1.5),  # the march workload's top rate
        (0.3, 3000, -2000.0),  # e^{600} at T, 20 blocks
        (1.0, 1000, 1e6),  # one cell per block, the carry's ratio underflows
        (1.0, 1000, 0.0),
        (1.0, 1000, 1e-9),
        (1.0, 1000, -1e-9),
    ],
)
def test_exp_recursion_matches_extended_precision(horizon, steps, mu2):
    # Every node against the running sup of the 113-bit recursion up to it.
    # Each tilt factor is exact to about TILT_SPAN * eps / 2 = 3.3e-15, the
    # rounding of its argument, and a growing row's carries are powers of
    # e^{-mu2 dt} whose arguments, up to |mu2| t, round the same way: the
    # loss of any double evaluation of e^{|mu2| t}. The gaps measured at
    # most 3.8e-15 for the cases whose carries are bounded, and 0.37 eps
    # |mu2| t at rate -2000, so the bound is 2e-14 + eps max(0, -mu2) t.
    # The FFT quadrature fails it in six of these eight cases: by 284 times
    # the running sup at node 1 for mu2 = pi^2 - 30, by 1.3e-13 at rate 0.
    grid = TimeGrid(horizon, steps)
    f = np.random.default_rng(steps).standard_normal(grid.size)
    out = convolve_exp_stack(f, grid, [mu2])[0]
    reference = _exp_recursion_reference(f, grid, mu2)
    sup = np.maximum.accumulate(np.abs(reference))
    eps = np.finfo(float).eps
    bound = 2e-14 + eps * max(0.0, -mu2) * grid.nodes
    assert out[0] == 0.0
    assert np.all(np.abs(out - reference)[1:] <= bound[1:] * sup[1:])


def test_end_pairing_oracle():
    f = sampled(lambda s: s)
    g = sampled(np.ones_like)
    # int_0^1 s ds = 1/2, trapezoid-exact for a linear integrand
    assert abs(end_pairing(f.values, g.values, GRID.dt) - 0.5) < 1e-14
