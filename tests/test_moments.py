"""End-state constraint family: targets, asymptotic law, scope, record.

The load-bearing oracle is the exact root of the resolvent of M(t) = 1 - t:
its Laplace transform has poles at (-1 +- sqrt5)/2, giving

    R(t) = A e^{r+ t} + B e^{r- t},  A = (r+ - 1)/(r+ - r-),  B = 1 - A ... ,

whose unique positive zero t* = log(-B/A)/(r+ - r-) = 0.86081788... lets the
horizon guard be tested exactly where the theory says it must refuse.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat import (
    ConstantKernel,
    ExpSumKernel,
    NumericalError,
    PolynomialKernel,
    SampledFunction,
    TimeGrid,
    ZeroKernel,
)
from memheat.algebra import convolve, convolve_exp_monomial
from memheat.dynamics import solve_mode
from memheat.modes import BoundaryControl, dirichlet_modes_1d, trace_pairing
from memheat.moments import (
    InitialData,
    asymptotic_table,
    build_moment_problem,
    check_end_value,
    end_brackets,
    free_end_value,
    scope_threshold,
)
from memheat.resolvents import mode_resolvent_direct, resolvent_of

GRID = TimeGrid(1.0, 1000)


def resolvent_root_of_one_minus_t():
    r5 = math.sqrt(5.0)
    rp, rm = (-1 + r5) / 2, (-1 - r5) / 2
    A = (rp - 1) / (rp - rm)
    B = (rm - 1) / (rm - rp)
    return math.log(-B / A) / (rp - rm)


def test_initial_data_rules():
    inv = InitialData.inverse_index()
    assert inv.value(4) == 0.25
    assert np.allclose(inv.values(3), [1.0, 0.5, 1.0 / 3.0])
    explicit = InitialData.from_values([2.0, -1.0])
    assert explicit.value(1) == 2.0
    assert explicit.value(5) == 0.0  # beyond the list: silence, not an error
    assert InitialData("zero").value(7) == 0.0
    with pytest.raises(ValueError):
        inv.value(0)


def test_memoryless_targets_are_exact():
    rt = resolvent_of(ZeroKernel(), GRID)
    for mode in dirichlet_modes_1d(3, gain=0.0):
        d = free_end_value(mode, rt, xi=0.5)
        assert d == pytest.approx(0.5 * math.exp(-mode.eigenvalue), rel=1e-12)
    mode = dirichlet_modes_1d(1, gain=0.0)[0]
    assert free_end_value(mode, rt, xi=0.0) == 0.0


@pytest.mark.parametrize("xi", [0.0, -0.7, 3.0])
def test_cached_end_bracket_gives_the_same_bits(xi):
    # an earlier xi = 1 call on the same triple leaves the value unchanged
    mode = dirichlet_modes_1d(2, gain=1.0)[1]
    grid = TimeGrid(1.0, 200)
    fresh = free_end_value(mode, resolvent_of(ConstantKernel(1.0), grid), xi=xi)
    rt = resolvent_of(ConstantKernel(1.0), grid)
    free_end_value(mode, rt)
    cached = free_end_value(mode, rt, xi=xi)
    assert np.float64(cached).tobytes() == np.float64(fresh).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.floats(min_value=-2.0, max_value=30.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_free_end_value_is_its_row_of_end_brackets(gain, horizon, steps, count, xi):
    # the one-rate target is the stacked bracket times xi, bit for bit, at
    # either rate sign and wherever the rate sits in the stack
    rt = resolvent_of(ConstantKernel(gain), TimeGrid(horizon, steps))
    modes = dirichlet_modes_1d(count, gain=gain)
    brackets = end_brackets(rt, [m.shifted_rate for m in modes])
    for mode, bracket in zip(modes, brackets):
        for x in (1.0, xi):
            d = free_end_value(mode, rt, xi=x)
            assert np.float64(d).tobytes() == np.float64(bracket * x).tobytes()


def test_asymptotic_law_memory():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    modes = dirichlet_modes_1d(12, gain=1.0)
    report = asymptotic_table(modes, rt)
    assert report.regime == "memory"
    assert report.end_value == pytest.approx(math.exp(-1.0), abs=1e-6)
    # ratios approach -e^{-1} from below at rate 1/mu2 ...
    assert abs(report.ratios[-1] + math.exp(-1.0)) < 1e-3
    # ... so the mu2-weighted residuals stay bounded by a single constant
    assert report.sup_weighted_residual < 1.0
    # and the tail of the residual sequence shows no growth
    weighted = [
        abs(r) * m.shifted_rate for r, m in zip(report.residuals, modes)
    ]
    assert max(weighted[6:]) <= max(weighted[:6])


def test_asymptotic_law_memoryless():
    rt = resolvent_of(ZeroKernel(), GRID)
    modes = dirichlet_modes_1d(6, gain=0.0)
    report = asymptotic_table(modes, rt)
    assert report.regime == "memoryless"
    assert report.end_value == 0.0
    # all the limits are zero: mu2 d_n = mu2 e^{-mu2} sinks fast
    assert all(abs(r) < 1e-3 for r in report.ratios)
    assert abs(report.ratios[-1]) < 1e-100


def test_zero_valued_kernels_are_memoryless():
    cases = [
        # every family's spelling of m = 0 is memoryless: scope starts at the
        # first positive rate ...
        (ConstantKernel(0.0), "memoryless", 1),
        (ExpSumKernel(((0.0, 2.0), (0.0, 0.0))), "memoryless", 1),
        (PolynomialKernel((0.0, 0.0)), "memoryless", 1),
        # ... and a kernel that is merely small, or zero at t = 0, is not: the
        # search runs, and e^{-mu2} swamps a 1e-300 end value up to mode 8
        (ExpSumKernel(((0.0, 2.0), (1e-300, 1.0))), "memory", 9),
        (PolynomialKernel((0.0, 0.0, -1.0)), "memory", 1),
    ]
    for kernel, regime, scope in cases:
        rt = resolvent_of(kernel, GRID)
        report = asymptotic_table(dirichlet_modes_1d(4, rt.gain), rt)
        assert report.regime == regime, kernel
        assert (report.end_value == 0.0) == (regime == "memoryless"), kernel
        assert scope_threshold(rt) == scope, kernel


def test_end_value_guard_at_resolvent_root():
    t_star = resolvent_root_of_one_minus_t()
    grid = TimeGrid(t_star, 1000)
    rt = resolvent_of(PolynomialKernel((1.0, -1.0)), grid)
    # sanity: the numerical resolvent really does vanish there
    assert abs(rt.end_value()) < 1e-4
    with pytest.raises(NumericalError, match="isolated"):
        check_end_value(rt)
    with pytest.raises(NumericalError):
        asymptotic_table(dirichlet_modes_1d(3, gain=1.0), rt)
    # a slightly different horizon is fine, exactly as the message promises
    grid2 = TimeGrid(t_star + 0.1, 1000)
    rt2 = resolvent_of(PolynomialKernel((1.0, -1.0)), grid2)
    check_end_value(rt2)


def test_scope_threshold():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    assert scope_threshold(rt) == 1
    # memoryless: first positive rate
    rt0 = resolvent_of(ZeroKernel(), GRID)
    assert scope_threshold(rt0) == 1
    # a large kernel value pushes the first usable mode past n = 1
    grid = TimeGrid(0.1, 1000)
    rt20 = resolvent_of(ConstantKernel(20.0), grid)
    modes20 = dirichlet_modes_1d(8, gain=20.0)
    start = scope_threshold(rt20)
    assert start >= 2
    assert all(m.shifted_rate > 0 for m in modes20 if m.index >= start)


def test_build_moment_problem_and_record():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    modes = dirichlet_modes_1d(5, gain=1.0)
    start = scope_threshold(rt)
    assert start == 1
    report = asymptotic_table(modes, rt)
    record = build_moment_problem(modes, rt, InitialData.inverse_index(), report.brackets)
    assert [m["n"] for m in record["modes"]] == [1, 2, 3, 4, 5]
    assert [m["d_n"] for m in record["modes"]] == [
        b * (1.0 / m.index) for b, m in zip(report.brackets, modes)
    ]
    assert record["T"] == 1.0
    # rescaled targets track the law times the initial data
    for m in record["modes"]:
        rescaled = m["mu2"] * m["d_n"]
        assert rescaled == pytest.approx(-math.exp(-1.0) / m["n"], rel=0.2)
    assert set(record) == {"T", "modes", "grid"}
    assert record["grid"] == {"horizon": 1.0, "steps": 1000}
    assert len(record["modes"]) == 5
    first = record["modes"][0]
    assert set(first) == {"n", "mu2", "d_n", "trace_factors"}
    assert first["n"] == 1
    assert first["mu2"] == pytest.approx(math.pi**2 - 1.0)
    assert first["trace_factors"] == [
        pytest.approx(-math.sqrt(2) * math.pi),
        pytest.approx(-math.sqrt(2) * math.pi),
    ]


def test_build_moment_problem_start_validation():
    grid = TimeGrid(0.1, 500)
    rt = resolvent_of(ConstantKernel(20.0), grid)
    modes = dirichlet_modes_1d(5, gain=20.0)
    # the window's brackets come from the asymptotic table, which refuses a
    # nonpositive rate before solving anything
    with pytest.raises(NumericalError, match="scope start 1 admits"):
        asymptotic_table(modes, rt)
    report = asymptotic_table(modes[1:], rt)
    record = build_moment_problem(modes[1:], rt, InitialData("zero"), report.brackets)
    assert [m["n"] for m in record["modes"]] == [2, 3, 4, 5]


@pytest.mark.parametrize("n", [1, 5, 10])
def test_pairing_matches_dynamics(n):
    # the constraint functional evaluated two ways: through the moment kernel
    # mu2 * trace * (e0 - h*e0) paired with the control by rate-exact fitted
    # convolutions, and through -mu2 w(T) of an actual zero-initial trajectory
    grid = TimeGrid(1.0, 2000)
    rt = resolvent_of(ConstantKernel(1.0), grid)
    mode = dirichlet_modes_1d(n, gain=1.0)[-1]
    mu2 = mode.shifted_rate
    f = SampledFunction.from_callable(grid, lambda t: np.sin(3.0 * t) + 0.25)
    control = BoundaryControl.at_right(f)
    h = mode_resolvent_direct(rt, mu2)
    direct = convolve_exp_monomial(f, mu2).values[-1]
    smoothed = convolve_exp_monomial(convolve(f, h), mu2).values[-1]
    via_kernel = mu2 * mode.trace_right * (direct - smoothed)
    traj = solve_mode(mode, rt, 0.0, trace_pairing(mode, control))
    via_dynamics = -mu2 * traj.w.values[-1]
    assert abs(via_kernel - via_dynamics) < 1e-6
    assert via_kernel == pytest.approx(via_dynamics, rel=1e-5)
