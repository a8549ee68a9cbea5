"""Kernel resolvents and mode resolvents (both routes).

The closed forms used as oracles are hand Laplace inversions:
  constant c        ->  R(t) = c e^{-ct}
  c e^{-bt}         ->  R(t) = c e^{-(b+c)t}
  1 - t             ->  R(t) = A e^{r+ t} + B e^{r- t},  r+- = (-1 +- sqrt5)/2,
                        A = (r+ - 1)/(r+ - r-), B = (r- - 1)/(r- - r+)
For M = 1 the mode resolvent at rate mu2 = 1 is e^{-t} sin t.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from memheat import algebra
from memheat.algebra import convolve, convolve_exp_monomial_stack, volterra_solve
from memheat.resolvents import (
    SERIES_MAX_TERMS,
    SERIES_TOL,
    mode_kernels,
    mode_resolvent_direct,
    mode_resolvent_series,
    mode_resolvent_series_stack,
    mode_resolvent_stack,
    resolvent_of,
    series_terms,
)

GRID = TimeGrid(1.0, 1000)


def series_stack(rt, rates):
    """The series stack at the per-rate counts its callers settle, and those counts."""
    terms = [series_terms(rt, mu2, SERIES_TOL) for mu2 in rates]
    return mode_resolvent_series_stack(rt, rates, terms), terms


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


# Kernels with no closed-form resolvent: a term or the constant coefficient
# of size 0.25..3 of either sign, so the resolvent is never identically zero.
MAGNITUDE = st.floats(0.25, 3.0).flatmap(lambda x: st.sampled_from([x, -x]))
NO_CLOSED_FORM = st.one_of(
    st.lists(st.tuples(MAGNITUDE, st.floats(0.0, 5.0)), min_size=1, max_size=3).map(
        lambda terms: ExpSumKernel(tuple(terms))
    ),
    st.tuples(MAGNITUDE, st.lists(st.floats(-3.0, 3.0), max_size=3)).map(
        lambda c: PolynomialKernel((c[0], *c[1]))
    ),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(NO_CLOSED_FORM, st.floats(0.2, 2.0), st.integers(32, 200))
def test_resolvent_is_second_order_and_solves_its_identity(kernel, horizon, steps):
    # identity_residual checks q + m*q = m with the trapezoid rule that solved
    # it, so it is round-off, not truncation error: it stays below C dt^2 with
    # C = 1e-5, where 5,000 random draws of this domain measured at most
    # 2.7e-6. The truncation error is O(dt^2): the sup gap between the steps and 2*steps resolvents shrinks by
    # 3.98..4.37 on the next doubling over the same draws.
    coarse, fine, finest = (
        resolvent_of(kernel, TimeGrid(horizon, m * steps)) for m in (1, 2, 4)
    )
    assert coarse.identity_residual() <= 1e-5 * coarse.grid.dt**2
    gap = np.abs(coarse.resolvent.values - fine.resolvent.values[::2]).max()
    next_gap = np.abs(fine.resolvent.values[::2] - finest.resolvent.values[::4]).max()
    assert 3.5 < gap / next_gap < 4.5


def test_reciprocity():
    # if q is the resolvent of m then -m is the resolvent of -q
    m = SampledFunction(GRID, ConstantKernel(1.0)(GRID.nodes))
    q = volterra_solve(m, m)
    back = volterra_solve(-q, -q)
    assert (back + m).sup_norm() < 1e-6


def test_mode_kernel_oracle():
    # M = 1: z = -(q' * e0) = (e^{-t} - e^{-mu2 t}) / (mu2 - 1)
    rt = resolvent_of(ConstantKernel(1.0), GRID)
    mu2 = 2.0
    z = mode_kernels(rt, mu2)[0]
    exact = np.exp(-GRID.nodes) - np.exp(-mu2 * GRID.nodes)
    assert np.max(np.abs(z - exact)) < 1e-6
    # and at mu2 = 1 the limit t e^{-t}
    z1 = mode_kernels(rt, 1.0)[0]
    assert np.max(np.abs(z1 - GRID.nodes * np.exp(-GRID.nodes))) < 1e-6


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


@pytest.mark.parametrize("kernel", [ConstantKernel(1.0), ExpSumKernel(((1.0, 1.0),))])
@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 - 1e-6])
def test_series_vs_direct_sees_a_fault_in_the_direct_cell_weights(
    monkeypatch, kernel, factor
):
    # A relative fault of 1e-6 in the direct route's closed-form weight a0
    # must show in the series-vs-direct gap at every rate of criterion C2.
    # Unfaulted, the gap is discretization error, 3.7e-8 to 8.2e-8 at 2,000
    # steps; faulted, it read 9.2e-7 to 1.1e-6. A series route that took
    # its degree-0 weights from the same function would move with the fault
    # and read 3.9e-8 to 1.3e-7.
    closed_forms = algebra._first_cell_weights

    def faulted(mu2, dt):
        a0, b0 = closed_forms(mu2, dt)
        return a0 * factor, b0

    monkeypatch.setattr(algebra, "_first_cell_weights", faulted)
    rates = [math.pi**2 - 1.0, 4.0 * math.pi**2 - 1.0, 100.0]
    rt = resolvent_of(kernel, TimeGrid(1.0, 2000))
    direct = mode_resolvent_stack(rt, rates)
    series, _ = series_stack(rt, rates)
    gaps = np.max(np.abs(direct - series), axis=1) / np.max(np.abs(direct), axis=1)
    assert np.all(gaps > 5e-7)


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
        series_terms(rt, 1.0, 0.0)
    # a huge kernel derivative exhausts the 60-term budget
    rt_stiff = resolvent_of(ConstantKernel(40.0), GRID)
    with pytest.raises(NumericalError):
        mode_resolvent_series(rt_stiff, 1.0)


def test_series_fails_before_convolving(monkeypatch):
    # the majorant decides the term count up front, so a series that cannot
    # converge raises without doing any of its convolutions
    from memheat import resolvents

    rt_stiff = resolvent_of(ConstantKernel(30.0), GRID)
    rt_mild = resolvent_of(ConstantKernel(1.0), GRID)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("convolve", "convolve_exp_monomial_stack"):
        monkeypatch.setattr(resolvents, name, counted(getattr(resolvents, name)))
    with pytest.raises(NumericalError, match="did not reach tolerance"):
        mode_resolvent_series(rt_stiff, 1.0)
    assert calls == []
    _, terms = mode_resolvent_series(rt_mild, 1.0)
    assert calls.count("convolve") == terms - 1
    assert calls.count("convolve_exp_monomial_stack") == 1  # every degree at once


def test_series_stack_convolves_the_powers_once_for_all_rates(monkeypatch):
    # the powers q'^{*k} do not depend on the rate: a stack over several
    # rates convolves them max(terms) - 1 times in all, each rate stops at
    # its own count, and each row holds the bits of the one-rate call
    from memheat import resolvents

    rt = resolvent_of(ConstantKernel(1.0), GRID)
    rates = [5.0, 2.0, 7.0, 100.0]
    alone = [mode_resolvent_series(rt, mu2) for mu2 in rates]
    calls = []
    convolve = resolvents.convolve

    def counted(f, g):
        calls.append(1)
        return convolve(f, g)

    monkeypatch.setattr(resolvents, "convolve", counted)
    h, terms = series_stack(rt, rates)
    assert len(calls) == max(terms) - 1
    assert terms == [10, 10, 9, 5]  # a faster rate needs fewer terms
    assert h.shape == (len(rates), GRID.size)
    for row, count, (one, one_terms) in zip(h, terms, alone):
        assert one_terms == count
        assert row.tobytes() == one.values.tobytes()
    with pytest.raises(NumericalError, match="positive decay rate"):
        mode_resolvent_series(rt, 0.0)
    assert len(calls) == max(terms) - 1  # a nonpositive rate fails before any work



def full_series(rt, rates):
    """Every row summed over SERIES_MAX_TERMS terms, whatever its own count,
    and the round-off scale of each row: sum_k sup|q'^{*(k+1)}| times the
    mass of u^k e^{-mu2 u} / k! on [0, T], the size of what the row adds."""
    grid, dq = rt.grid, rt.resolvent_deriv
    powers = np.empty((SERIES_MAX_TERMS, grid.size))
    powers[0] = dq.values
    for k in range(1, SERIES_MAX_TERMS):
        powers[k] = convolve(SampledFunction(grid, powers[k - 1]), dq).values
    h = convolve_exp_monomial_stack(powers, grid, rates, [SERIES_MAX_TERMS] * len(rates))
    k = np.arange(SERIES_MAX_TERMS)
    log_factorial = np.array([math.lgamma(d + 1) for d in k])
    sups = np.max(np.abs(powers), axis=1)
    scales = []
    for mu2 in rates:
        log_mass = np.minimum(
            -(k + 1) * math.log(mu2),
            (k + 1) * math.log(grid.horizon) - log_factorial - np.log(k + 1),
        )
        scales.append(float(np.sum(sups * np.exp(log_mass - log_factorial))))
    return -h, scales


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.floats(min_value=-5.0, max_value=50.0).map(ConstantKernel),
        st.lists(
            st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 20.0)), min_size=1, max_size=2
        ).map(ExpSumKernel),
    ),
    st.floats(min_value=0.1, max_value=2.0),
    st.lists(
        st.floats(min_value=math.log(1e-2), max_value=math.log(1e4)), min_size=1, max_size=4
    ),
    st.floats(min_value=math.log(1e-14), max_value=math.log(1e-6)),
)
# sup|q'| = 25 e^10 = 5.5e5: no rate up to 1e4 converges in 60 terms, and
# S^{k+1} overflows a double long before k = 60
@example(ConstantKernel(-5.0), 2.0, [0.0, math.log(1e4)], math.log(1e-14))
def test_series_rows_stop_within_tolerance_of_the_full_series(
    kernel, horizon, log_rates, log_tol
):
    # each rate stops at its own term count; its row is within tol of the
    # SERIES_MAX_TERMS-term row, plus round-off: measured at most 61 eps
    # times the row's scale over 1,000 random draws of this domain (2,094
    # rows), so C = 500.
    # A rate that cannot converge fails its count cleanly, before any work.
    grid = TimeGrid(horizon, 200)
    rt = resolvent_of(kernel, grid)
    rates = [math.exp(x) for x in log_rates]
    tol = math.exp(log_tol)
    converged, terms = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, in the bounds or the powers
        for mu2 in rates:
            try:
                terms.append(series_terms(rt, mu2, tol))
                converged.append(mu2)
            except NumericalError as exc:
                assert "did not reach tolerance" in str(exc)
        if not converged:
            return
        h = mode_resolvent_series_stack(rt, converged, terms)
        full, scales = full_series(rt, converged)
    assert all(t <= SERIES_MAX_TERMS for t in terms)
    for row, full_row, scale in zip(h, full, scales):
        assert np.max(np.abs(row - full_row)) <= tol + 500 * np.finfo(float).eps * scale
