"""Dirichlet eigendata, boundary traces, and the trace-pairing conventions."""

import math

import numpy as np
import pytest

from memheat import GridMismatchError, SampledFunction, TimeGrid
from memheat.modes import (
    BoundaryControl,
    dirichlet_modes_1d,
    first_positive_index,
    trace_pairing,
)


def test_eigendata():
    modes = dirichlet_modes_1d(5, gain=1.0)
    assert [m.index for m in modes] == [1, 2, 3, 4, 5]
    for m in modes:
        n = m.index
        assert m.eigenvalue == pytest.approx((n * math.pi) ** 2, rel=1e-15)
        assert m.shifted_rate == pytest.approx(m.eigenvalue - 1.0, rel=1e-15)
        assert m.trace_left == pytest.approx(-math.sqrt(2) * n * math.pi)
        assert m.trace_right == pytest.approx(
            math.sqrt(2) * n * math.pi * (-1) ** n
        )


def test_modes_from_a_later_index_match_the_full_list():
    assert dirichlet_modes_1d(3, gain=40.0, first=5) == dirichlet_modes_1d(7, gain=40.0)[4:]


def test_trace_parity():
    modes = dirichlet_modes_1d(8, gain=0.0)
    for m in modes:
        assert m.trace_left < 0
        # right trace alternates: negative for odd n, positive for even n
        assert (m.trace_right > 0) == (m.index % 2 == 0)


def test_trace_signs_from_steady_state():
    # the coefficients of u(x) = x in the sine basis are sqrt2 (-1)^{n+1}/(n pi);
    # they must equal -trace_right / eigenvalue (the steady state of the
    # memoryless flow held at 1 on the right). This pins the sign convention.
    x = np.linspace(0.0, 1.0, 20001)
    for m in dirichlet_modes_1d(4, gain=0.0):
        phi = math.sqrt(2.0) * np.sin(m.index * math.pi * x)
        coeff = np.trapezoid(x * phi, x)
        assert coeff == pytest.approx(-m.trace_right / m.eigenvalue, abs=1e-8)


def test_trace_bound_is_exactly_four():
    # sum over both endpoints of |trace / frequency|^2 is 4 for every 1D mode
    modes = dirichlet_modes_1d(50, gain=3.0)
    for m in modes:
        assert abs((m.trace_left**2 + m.trace_right**2) / m.eigenvalue - 4.0) < 1e-12


def test_first_positive_index():
    assert first_positive_index(0.0) == 1
    assert first_positive_index(1.0) == 1
    assert first_positive_index(20.0) == 2  # pi^2 < 20 < 4 pi^2
    assert first_positive_index(40.0) == 3  # 4 pi^2 < 40 < 9 pi^2

    def counted(gain):
        n = 1
        while (n * math.pi) ** 2 <= gain:
            n += 1
        return n

    # the squares (n pi)^2 themselves and their float neighbours are the
    # edge cases of the closed-form start
    edges = [(n * math.pi) ** 2 for n in range(1, 400)]
    gains = edges + [math.nextafter(g, 0.0) for g in edges]
    gains += [math.nextafter(g, math.inf) for g in edges] + [1000.0, 1e6]
    for gain in gains:
        assert first_positive_index(gain) == counted(gain), gain
    # sqrt(1e300)/pi steps would never finish
    assert first_positive_index(1e300) > 3e149


def test_boundary_control_constructors():
    grid = TimeGrid(1.0, 10)
    f = SampledFunction.from_callable(grid, lambda t: 1.0 + 0.0 * t)
    right = BoundaryControl.at_right(f)
    assert right.right is f and right.left.sup_norm() == 0.0
    assert right.left.grid == grid
    with pytest.raises(GridMismatchError):
        BoundaryControl(f, SampledFunction.zeros(TimeGrid(1.0, 20)))


def test_trace_pairing():
    grid = TimeGrid(1.0, 10)
    one = SampledFunction.from_callable(grid, lambda t: np.ones_like(t))
    mode1 = dirichlet_modes_1d(1, gain=0.0)[0]
    zero = SampledFunction.zeros(grid)
    g_left = trace_pairing(mode1, BoundaryControl(one, zero))
    assert np.allclose(g_left.values, -math.sqrt(2) * math.pi)
    g_right = trace_pairing(mode1, BoundaryControl.at_right(one))
    assert np.allclose(g_right.values, -math.sqrt(2) * math.pi)
    g_both = trace_pairing(mode1, BoundaryControl(one, one))
    assert np.allclose(g_both.values, -2 * math.sqrt(2) * math.pi)
    g_none = trace_pairing(mode1, BoundaryControl(zero, zero))
    assert g_none.sup_norm() == 0.0
