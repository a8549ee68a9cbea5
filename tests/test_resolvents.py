"""Kernel resolvents and mode resolvents (both routes).

The closed forms used as oracles are hand Laplace inversions:
  constant c        ->  R(t) = c e^{-ct}
  c e^{-bt}         ->  R(t) = c e^{-(b+c)t}
  1 - t             ->  R(t) = A e^{r+ t} + B e^{r- t},  r+- = (-1 +- sqrt5)/2,
                        A = (r+ - 1)/(r+ - r-), B = (r- - 1)/(r- - r+)
For M = 1 the mode resolvent at rate mu2 = 1 is e^{-t} sin t.
"""

import math

import numpy as np
import pytest

from memheat import (
    ConstantKernel,
    ExpSumKernel,
    NumericalError,
    PolynomialKernel,
    TimeGrid,
    ZeroKernel,
)
from memheat.algebra import volterra_solve
from memheat.resolvents import (
    mode_kernel,
    mode_resolvent_direct,
    mode_resolvent_series,
    resolvent_of,
)

GRID = TimeGrid(1.0, 1000)


def test_zero_kernel_resolvent_is_exactly_zero():
    rt = resolvent_of(ZeroKernel(), GRID)
    assert np.array_equal(rt.resolvent.values, np.zeros(GRID.size))
    assert np.array_equal(rt.resolvent_deriv.values, np.zeros(GRID.size))
    assert rt.gain == 0.0
    assert rt.identity_residual() == 0.0


def test_constant_one_oracle():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    exact = np.exp(-GRID.nodes)
    assert np.max(np.abs(rt.resolvent.values - exact)) < 1e-6
    assert np.max(np.abs(rt.resolvent_deriv.values + exact)) < 1e-6
    assert rt.gain == 1.0
    assert abs(rt.resolvent.values[0] - 1.0) < 1e-12  # R(0) = M(0)
    assert abs(rt.end_value() - math.exp(-1.0)) < 1e-6
    assert rt.identity_residual() < 1e-7


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_exp_kernel_oracle(b):
    rt = resolvent_of(ExpSumKernel(((1.0, b),)), GRID)
    exact = np.exp(-(b + 1.0) * GRID.nodes)
    assert np.max(np.abs(rt.resolvent.values - exact)) < 1e-6


def test_constant_large_oracle():
    rt = resolvent_of(ConstantKernel(2.5), GRID)
    exact = 2.5 * np.exp(-2.5 * GRID.nodes)
    assert np.max(np.abs(rt.resolvent.values - exact)) < 1e-5


def test_polynomial_kernel_oracle():
    # M(t) = 1 - t; poles of Mhat/(1+Mhat) = (s-1)/(s^2+s-1) at (-1 +- sqrt5)/2
    r5 = math.sqrt(5.0)
    rp, rm = (-1 + r5) / 2, (-1 - r5) / 2
    A = (rp - 1) / (rp - rm)
    B = (rm - 1) / (rm - rp)
    rt = resolvent_of(PolynomialKernel((1.0, -1.0)), GRID)
    exact = A * np.exp(rp * GRID.nodes) + B * np.exp(rm * GRID.nodes)
    assert np.max(np.abs(rt.resolvent.values - exact)) < 1e-6


def test_reciprocity():
    # if q is the resolvent of m then -m is the resolvent of -q
    m = ConstantKernel(1.0).sample(GRID)
    q = volterra_solve(m, m)
    back = volterra_solve(-q, -q)
    assert (back + m).sup_norm() < 1e-6


def test_mode_kernel_oracle():
    # M = 1: z = -(q' * e0) = (e^{-t} - e^{-mu2 t}) / (mu2 - 1)
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    mu2 = 2.0
    z = mode_kernel(rt, mu2)
    exact = np.exp(-GRID.nodes) - np.exp(-mu2 * GRID.nodes)
    assert np.max(np.abs(z.values - exact)) < 1e-6
    # and at mu2 = 1 the limit t e^{-t}
    z1 = mode_kernel(rt, 1.0)
    assert np.max(np.abs(z1.values - GRID.nodes * np.exp(-GRID.nodes))) < 1e-6


def test_mode_resolvent_exp_sine_oracle():
    # M = 1, mu2 = 1: h(t) = e^{-t} sin t on both routes
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    exact = np.exp(-GRID.nodes) * np.sin(GRID.nodes)
    hd = mode_resolvent_direct(rt, 1.0)
    hs, terms = mode_resolvent_series(rt, 1.0)
    assert np.max(np.abs(hd.values - exact)) < 1e-6
    assert np.max(np.abs(hs.values - exact)) < 1e-6
    assert terms >= 3


@pytest.mark.parametrize("mu2", [math.pi**2 - 1.0, 100.0])
def test_series_vs_direct(mu2):
    # both routes carry O(dt^2) quadrature error; at 8000 steps their gap
    # sits well under 1e-8 relative (the mu2 = 100 resolvent is ~1e-2 in sup,
    # which is why the comparison is relative, not absolute)
    grid = TimeGrid(1.0, 8000)
    rt = resolvent_of(ConstantKernel(1.0), grid)
    hd = mode_resolvent_direct(rt, mu2)
    hs, _ = mode_resolvent_series(rt, mu2)
    scale = max(hd.sup_norm(), 1e-30)
    assert (hs - hd).sup_norm() / scale < 1e-8


def test_mode_resolvent_bounded_in_rate():
    # the mode resolvents stay uniformly bounded as the rate grows; this is
    # the structural fact that makes the high-mode analysis work at all
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    sups = [mode_resolvent_direct(rt, mu2).sup_norm() for mu2 in (10.0, 100.0, 1000.0)]
    assert max(sups) < 1.0
    assert sups[2] < sups[0]  # decay in the rate, not mere boundedness


def test_series_route_validation():
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    with pytest.raises(NumericalError):
        mode_resolvent_series(rt, -1.0)  # negative rate: direct route only
    with pytest.raises(ValueError):
        mode_resolvent_series(rt, 1.0, tol=0.0)
    # a huge kernel derivative exhausts the 60-term budget
    rt_stiff = resolvent_of(ConstantKernel(40.0), GRID)
    with pytest.raises(NumericalError):
        mode_resolvent_series(rt_stiff, 1.0)
