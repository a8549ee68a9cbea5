"""Modal dynamics on both routes, degeneration, convergence.

The strongest oracle: for a constant kernel c the mode equation is exactly
the second-order ODE

    w'' + lam2 w' + c lam2 w = -c g,   w(0) = xi, w'(0) = -lam2 xi - g(0),

(differentiate the integrated equation once), solvable by hand for constant
boundary forcing g. For an exp_sum kernel m = sum c_k e^{-b_k t} the states
v_k = int_0^t e^{-b_k (t-s)} w(s) ds make the free mode the linear ODE

    w' = -lam2 (w + sum_k c_k v_k),   v_k' = w - b_k v_k,

whose end value comes from mp.expm. The dynamics never use these
reductions, so agreement is a genuine cross-check of the whole Volterra
pipeline, up to the `simulate` command.
"""

import cmath
import math

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat import (
    ConstantKernel,
    SampledFunction,
    TimeGrid,
    ZeroKernel,
)
from memheat import dynamics
from memheat.algebra import convolve, convolve_exp
from memheat.config import config_from_dict
from memheat.experiments import cmd_simulate
from memheat.dynamics import (
    ModalTrajectory,
    heat_mode,
    explicit_mode,
    modal_rhs,
    solve_mode,
)
from memheat.modes import dirichlet_modes_1d
from memheat.resolvents import mode_resolvent_direct, mode_resolvent_series, resolvent_of

GRID = TimeGrid(1.0, 1000)


def exact_const_memory(lam2, xi, g_const, t, c=1.0):
    """Hand solution of w'' + lam2 w' + c lam2 w = -c g, constant data."""
    disc = complex(lam2 * lam2 - 4.0 * c * lam2)
    rp = (-lam2 + cmath.sqrt(disc)) / 2.0
    rm = (-lam2 - cmath.sqrt(disc)) / 2.0
    w_part = -g_const / lam2
    a_plus_b = xi - w_part
    ra_plus_rb = -lam2 * xi - g_const
    A = (ra_plus_rb - rm * a_plus_b) / (rp - rm)
    B = a_plus_b - A
    return (w_part + A * np.exp(rp * t) + B * np.exp(rm * t)).real


def const_forcing(grid, value):
    return SampledFunction(grid, np.full(grid.size, float(value)))


def test_heat_mode_free():
    mode = dirichlet_modes_1d(1, gain=0.0)[0]
    traj = heat_mode(mode, 1.0, SampledFunction.zeros(GRID))
    assert np.max(np.abs(traj.w.values - np.exp(-mode.eigenvalue * GRID.nodes))) < 1e-12


def test_heat_mode_forced_from_rest():
    # xi = 0, g = 1: w(t) = -(1 - e^{-lam2 t}) / lam2
    mode = dirichlet_modes_1d(1, gain=0.0)[0]
    traj = heat_mode(mode, 0.0, const_forcing(GRID, 1.0))
    lam2 = mode.eigenvalue
    exact = -(1.0 - np.exp(-lam2 * GRID.nodes)) / lam2
    assert np.max(np.abs(traj.w.values - exact)) < 1e-9


def test_memoryless_degeneration_is_bitwise():
    rt = resolvent_of(ZeroKernel(), GRID)
    g = SampledFunction.zeros(GRID)
    for mode in dirichlet_modes_1d(3, gain=0.0):
        via_solver = solve_mode(mode, rt, 0.7, g)
        baseline = heat_mode(mode, 0.7, g)
        assert np.array_equal(via_solver.w.values, baseline.w.values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_zero_kernel_solve_is_heat_mode_bitwise(n, xi, steps, seed, forced):
    # with no memory the Volterra route adds and solves only exact zeros
    grid = TimeGrid(1.0, steps)
    rt = resolvent_of(ZeroKernel(), grid)
    g = SampledFunction.zeros(grid)
    if forced:
        g = SampledFunction(grid, np.random.default_rng(seed).standard_normal(grid.size))
    mode = dirichlet_modes_1d(n, gain=0.0)[-1]
    via_solver = solve_mode(mode, rt, xi, g)
    baseline = heat_mode(mode, xi, g)
    assert via_solver.w.values.tobytes() == baseline.w.values.tobytes()


@pytest.mark.parametrize("xi,g_const", [(1.0, 0.0), (0.3, 2.0), (0.0, 1.0)])
def test_constant_kernel_ode_oracle(xi, g_const):
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    mode = dirichlet_modes_1d(1, gain=1.0)[0]
    traj = solve_mode(mode, rt, xi, const_forcing(GRID, g_const))
    exact = exact_const_memory(mode.eigenvalue, xi, g_const, GRID.nodes)
    assert np.max(np.abs(traj.w.values - exact)) < 1e-6


def test_ode_oracle_second_order_convergence():
    mode = dirichlet_modes_1d(1, gain=1.0)[0]

    def err_at(grid):
        rt = resolvent_of(ConstantKernel(1.0), grid)
        traj = solve_mode(mode, rt, 1.0, const_forcing(grid, 0.5))
        exact = exact_const_memory(mode.eigenvalue, 1.0, 0.5, grid.nodes)
        return np.max(np.abs(traj.w.values - exact))

    ratio = err_at(GRID) / err_at(TimeGrid(GRID.horizon, 2 * GRID.steps))
    assert 3.5 < ratio < 4.5


def exp_sum_end_value(terms, lam2, horizon, xi):
    """w(T) of the free mode for m = sum c e^{-b t}: the first entry of
    expm(A T) (xi, 0, ..., 0) for the (1 + K) system above, at 30 digits."""
    A = mpmath.zeros(len(terms) + 1)
    A[0, 0] = -lam2
    for i, (c, b) in enumerate(terms, 1):
        A[0, i] = -lam2 * c
        A[i, 0] = 1
        A[i, i] = -b
    with mpmath.workdps(30):
        return float(mpmath.expm(A * horizon)[0, 0] * xi)


EXP_SUM_STEPS = 1000
EXP_SUM_MODES = 6


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 4.0, exclude_min=True), st.floats(0.0, 10.0)),
        min_size=1,
        max_size=2,
    ),
    st.floats(0.1, 3.0),
)
def test_simulate_matches_the_exp_sum_ode(terms, horizon):
    # c <= 4 per term keeps pi^2 - sum c > 0, so every mode's shifted rate is
    # positive. simulate's w_n(T) is within C dt^2 lam_n |xi_n| of the ODE,
    # lam_n = n pi the mode frequency: gap / (dt^2 lam_n |xi_n|) measured at
    # most 4.9 (two terms c = 4, b = 10, T = 0.1, mode 1) over the corners
    # of this domain at 100, 200 and 1,000 steps and 0.9 over 100 random
    # draws at 1,000, steady under step doubling (an O(dt^2) gap), so
    # C = 10. At 1,000 steps a 1% error in the kernel's rates fails.
    config = config_from_dict(
        {
            "kernel": {"type": "exp_sum", "terms": [{"c": c, "b": b} for c, b in terms]},
            "horizon": horizon,
            "steps": EXP_SUM_STEPS,
            "modes": EXP_SUM_MODES,
        }
    )
    _, rows = cmd_simulate(config)["trajectories.csv"]
    dt = horizon / EXP_SUM_STEPS
    xis = config.initial.values(EXP_SUM_MODES)
    for n, (xi, w_end) in enumerate(zip(xis, rows[-1][1:]), 1):
        lam2 = (n * math.pi) ** 2
        exact = exp_sum_end_value(terms, lam2, horizon, xi)
        assert abs(w_end - exact) <= 10.0 * dt**2 * math.sqrt(lam2) * abs(xi)


def test_solve_vs_explicit_direct_route():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    g = const_forcing(GRID, 1.0)
    for mode in dirichlet_modes_1d(4, gain=1.0):
        h = mode_resolvent_direct(rt, mode.shifted_rate)
        xi = 1.0 / mode.index
        gap = (
            solve_mode(mode, rt, xi, g).w - explicit_mode(mode, rt, h, xi, g).w
        ).sup_norm()
        # same discretization algebra on both sides: agreement to round-off
        assert gap < 1e-12


def test_solve_vs_explicit_series_route():
    grid = TimeGrid(1.0, 4000)
    rt = resolvent_of(ConstantKernel(1.0), grid)
    g = const_forcing(grid, 1.0)
    mode = dirichlet_modes_1d(1, gain=1.0)[0]
    h, _ = mode_resolvent_series(rt, mode.shifted_rate)
    gap = (
        solve_mode(mode, rt, 1.0, g).w - explicit_mode(mode, rt, h, 1.0, g).w
    ).sup_norm()
    assert gap < 1e-7


def test_plug_back_residual_converges_second_order():
    # The solver discretizes the pre-associated kernel z = -(q'*e0); plugging
    # the solution back through the iterated form e0*(q'*w) composes the
    # quadratures differently, so the residual is O(dt^2), not round-off.
    mode = dirichlet_modes_1d(2, gain=1.0)[1]

    def resid_at(grid):
        rt = resolvent_of(ConstantKernel(1.0), grid)
        g = SampledFunction.zeros(grid)
        w = solve_mode(mode, rt, 1.0, g).w
        iterated = convolve_exp(convolve(rt.resolvent_deriv, w), mode.shifted_rate)
        return (w - iterated - modal_rhs(mode, rt, 1.0, g)).sup_norm()

    coarse = resid_at(GRID)
    fine = resid_at(TimeGrid(GRID.horizon, 2 * GRID.steps))
    assert coarse < 1e-6
    assert 3.0 < coarse / fine < 5.0


def test_zero_forcing_skips_its_convolution(monkeypatch):
    # every CLI path passes g = 0; its convolution would subtract exact zeros
    calls = []
    quadrature = dynamics.convolve_exp_monomial_stack

    def counted(f, grid, rates):
        calls.append(f)
        return quadrature(f, grid, rates)

    monkeypatch.setattr(dynamics, "convolve_exp_monomial_stack", counted)
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    mode = dirichlet_modes_1d(2, gain=1.0)[1]
    zero = SampledFunction.zeros(GRID)
    k = modal_rhs(mode, rt, 0.7, zero)
    assert [f is rt.resolvent.values for f in calls] == [True]
    with_zero = k - convolve_exp(zero, mode.shifted_rate)
    assert k.values.tobytes() == with_zero.values.tobytes()
    calls.clear()
    g = const_forcing(GRID, 1.0)
    modal_rhs(mode, rt, 0.7, g)
    assert [f is h.values for f, h in zip(calls, (rt.resolvent, g))] == [True, True]


def test_free_memory_modes_decay():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    g = SampledFunction.zeros(GRID)
    for mode in dirichlet_modes_1d(6, gain=1.0):
        traj = solve_mode(mode, rt, 1.0, g)
        assert abs(traj.w.at_end()) < 1.0


def test_nonpositive_rate_warns():
    grid = TimeGrid(1.0, 200)
    rt = resolvent_of(ConstantKernel(20.0), grid)
    mode = dirichlet_modes_1d(1, gain=20.0)[0]  # pi^2 - 20 < 0
    assert mode.shifted_rate < 0
    with pytest.warns(UserWarning, match="nonpositive shifted rate"):
        solve_mode(mode, rt, 1.0, SampledFunction.zeros(grid))


def test_trajectory_initial_consistency():
    w = SampledFunction.from_callable(GRID, lambda t: 1.0 + t)
    with pytest.raises(ValueError):
        ModalTrajectory(0.0, w)  # starts at 1, claims 0
