"""Modal dynamics on both routes, degeneration, convergence.

The strongest oracle: for a constant kernel c the mode equation is exactly
the second-order ODE

    w'' + lam2 w' + c lam2 w = -c g,   w(0) = xi, w'(0) = -lam2 xi - g(0),

(differentiate the integrated equation once), solvable by hand for constant
boundary forcing g. The dynamics never use this reduction, so agreement is a
genuine cross-check of the whole Volterra pipeline.
"""

import cmath

import numpy as np
import pytest

from memheat import (
    ConstantKernel,
    SampledFunction,
    TimeGrid,
    ZeroKernel,
)
from memheat.algebra import convolve, convolve_exp
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

    ratio = err_at(GRID) / err_at(GRID.halved())
    assert 3.5 < ratio < 4.5


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
    fine = resid_at(GRID.halved())
    assert coarse < 1e-6
    assert 3.0 < coarse / fine < 5.0


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
    mode = dirichlet_modes_1d(1, gain=0.0)[0]
    w = SampledFunction.from_callable(GRID, lambda t: 1.0 + t)
    with pytest.raises(ValueError):
        ModalTrajectory(mode, 0.0, w)  # starts at 1, claims 0
