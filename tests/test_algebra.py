"""Convolution quadrature, Volterra marching, and the fitted exponential rules.

Oracles here are hand-computed convolutions and ODE solutions; the grid
refinement checks pin the second-order accuracy that the dynamics tests
rely on later.
"""

import math

import numpy as np
import pytest

from memheat import NumericalError, SampledFunction, TimeGrid
from memheat.algebra import (
    convolve,
    convolve_exp,
    convolve_exp_monomial,
    end_pairing,
    volterra_solve,
)

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
    ratio = err / err_at(GRID.halved())
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


def test_volterra_zero_kernel_is_identity():
    rng = np.random.default_rng(3)
    rhs = SampledFunction(GRID, rng.standard_normal(GRID.size))
    out = volterra_solve(SampledFunction.zeros(GRID), rhs)
    assert np.array_equal(out.values, rhs.values)


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
    # dt * K(0) / 2 = -1 makes the marching pivot vanish
    grid = TimeGrid(1.0, 1000)
    k = SampledFunction(grid, np.full(grid.size, -2.0 / grid.dt))
    with pytest.raises(NumericalError):
        volterra_solve(k, SampledFunction.zeros(grid))


# ---------------------------------------------------------------------------
# exponentially fitted convolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu2", [1.0, 100.0, 1e4, 0.2, -3.0])
def test_convolve_exp_linear_exactness(mu2):
    # the fitted rule integrates (affine f) x e^{-mu2 s} exactly per cell,
    # so f(t) = 2 + 3t has a closed-form convolution against the exponential
    f = sampled(lambda s: 2.0 + 3.0 * s)
    out = convolve_exp(f, mu2)
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
    fitted = convolve_exp(f, 0.7)
    plain = convolve(f, e)
    assert (fitted - plain).sup_norm() < 1e-6


def test_convolve_exp_stiff_rate_stays_accurate():
    # at mu2 = 1e4 a plain trapezoid misses the boundary layer entirely;
    # the fitted rule keeps the O(dt^2) error of the smooth factor
    mu2 = 1e4
    f = sampled(lambda s: np.cos(s))
    out = convolve_exp(f, mu2)
    t = GRID.nodes
    # oracle: int cos(t-u) e^{-mu2 u} du = [mu2 cos t ... ] exact form
    exact = (
        mu2 * np.cos(t) + np.sin(t) - mu2 * np.exp(-mu2 * t)
    ) / (1.0 + mu2**2)
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_convolve_exp_monomial_quadratic_weight():
    # weight s^2/2! e^{-mu2 s} against f = 1:
    # int_0^t (s^2/2) e^{-mu2 s} ds = (2 - e^{-mu2 t}(mu2^2 t^2 + 2 mu2 t + 2)) / (2 mu2^3)
    mu2 = 3.0
    one = sampled(np.ones_like)
    out = convolve_exp_monomial(one, mu2, 2)
    t = GRID.nodes
    exact = (2.0 - np.exp(-mu2 * t) * (mu2**2 * t**2 + 2 * mu2 * t + 2)) / (
        2.0 * mu2**3
    )
    assert np.max(np.abs(out.values - exact)) < 1e-8
    with pytest.raises(NumericalError):
        convolve_exp_monomial(one, -1.0, 2)  # k >= 1 requires decay


def test_convolve_exp_negative_rate():
    # growing exponential, k = 0 path: 1 * e^{3s} = (e^{3t} - 1)/3
    out = convolve_exp(sampled(np.ones_like), -3.0)
    exact = (np.exp(3.0 * GRID.nodes) - 1.0) / 3.0
    assert np.max(np.abs(out.values - exact)) / np.max(exact) < 1e-12


def test_end_pairing_oracle():
    f = sampled(lambda s: s)
    g = sampled(np.ones_like)
    # int_0^1 s ds = 1/2, trapezoid-exact for a linear integrand
    assert abs(end_pairing(f, g) - 0.5) < 1e-14
