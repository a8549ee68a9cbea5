"""Biorthogonal norms, the Cauchy oracle, and the control sweeps.

Hand-checkable anchor: for exponents {1, 2} on (0, infinity) the Gram matrix
is [[1/2, 1/3], [1/3, 1/4]] with determinant 1/72, so the inverse diagonal is
(18, 36) exactly. Everything else is gated against the closed-form Cauchy
inverse or against resampled trapezoid arithmetic.
"""

import math

import numpy as np
import pytest
from mpmath import mpf, workprec

from memheat import NumericalError, PrecisionError, TimeGrid
from memheat.biorth import (
    RESIDUAL_GATE,
    BiorthReport,
    cauchy_inverse_log_diag,
    control_norm_sweep,
    empirical_gram,
    fit_log_growth,
    gram,
    growth_fit,
    min_norm_biorth,
    orthonormal_family_gram,
)
from memheat.moments import InitialData


def trapezoid_inner(grid, a, b):
    return float(np.trapezoid(a * b, grid.nodes))


def test_pair_family_exact_inverse_diagonal():
    single = min_norm_biorth(gram((1.0,), None))
    assert single.norms[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    report = min_norm_biorth(gram((1.0, 2.0), None))
    assert report.norms[0] == pytest.approx(math.sqrt(18.0), rel=1e-12)
    assert report.norms[1] == pytest.approx(6.0, rel=1e-12)
    assert report.log_norms[1] == pytest.approx(math.log(6.0), rel=1e-12)
    # the decoration fields stay coherent
    assert report.indices == (1, 2)
    assert len(report.residuals) == 2
    assert report.residual == max(report.residuals)
    assert report.residual < 1e-20
    assert report.escalations[-1][0] == report.precision_used


def test_gram_validation():
    with pytest.raises(ValueError):
        gram((1.0, -2.0), None)
    with pytest.raises(NumericalError, match="duplicate"):
        gram((1.0, 1.0), None)
    with pytest.raises(ValueError):
        empirical_gram(np.ones((2, 3)))


def test_finite_horizon_entries_grow_to_cauchy():
    exps = (1.0, 2.0)
    g_short = gram(exps, 0.5).matrix
    g_long = gram(exps, 2.0).matrix
    g_inf = gram(exps, None).matrix
    for i in range(2):
        for j in range(2):
            assert float(g_short[i, j]) < float(g_long[i, j]) < float(g_inf[i, j])


def test_finite_horizon_norms_dominate():
    exps = tuple((n * math.pi) ** 2 - 1.0 for n in range(1, 5))
    finite = min_norm_biorth(gram(exps, 1.0))
    infinite = min_norm_biorth(gram(exps, None))
    for nf, ni in zip(finite.norms, infinite.norms):
        assert nf > ni


def cauchy_inverse_diag_mp(exponents, precision=256):
    """The Cauchy closed form for the inverse diagonal, in extended precision."""
    exps = [mpf(float(x)) for x in exponents]
    out = []
    with workprec(precision):
        for i, xi in enumerate(exps):
            acc = 2 * xi
            for k, xk in enumerate(exps):
                if k != i:
                    acc *= ((xk + xi) / (xk - xi)) ** 2
            out.append(acc)
    return out


def test_closed_form_matches_gram_solve():
    exps = np.array([(n * math.pi) ** 2 - 1.0 for n in range(1, 21)])
    report = min_norm_biorth(gram(tuple(exps), None, precision=256))
    closed = 0.5 * cauchy_inverse_log_diag(exps)
    assert np.max(np.abs(np.array(report.log_norms) - closed)) < 1e-12
    # and the extended-precision rendition of the same closed form; the
    # inverse diagonal depends on the whole family, so the comparison must
    # run over the same twenty exponents, not a truncation
    mp_diag = cauchy_inverse_diag_mp(exps)
    for log_norm, d in zip(report.log_norms, mp_diag):
        assert log_norm == pytest.approx(0.5 * math.log(float(d)), rel=1e-12)


def test_closed_form_warns_on_near_coincident_exponents():
    with pytest.warns(UserWarning, match="near-coincident"):
        cauchy_inverse_log_diag(np.array([1.0, 1.0 + 1e-12]))


def test_growth_law_slope():
    # the norms of the family {e^{-mu2_n t}} grow like e^{pi n}; the fit over
    # indices 10..30 of a thousand-member family must sit within 5% of pi
    exps = np.array([(n * math.pi) ** 2 - 1.0 for n in range(1, 1001)])
    log_norms = 0.5 * cauchy_inverse_log_diag(exps)
    fit = fit_log_growth(np.arange(10, 31), log_norms[9:30])
    assert 0.95 * math.pi <= fit.slope <= 1.05 * math.pi
    assert fit.residual < 0.5


def test_small_family_distorts_the_law():
    # the same window read off a small family underestimates the slope: the
    # growth law is an asymptotic statement about the family, not the window
    full = 0.5 * cauchy_inverse_log_diag(
        np.array([(n * math.pi) ** 2 - 1.0 for n in range(1, 1001)])
    )
    small = 0.5 * cauchy_inverse_log_diag(
        np.array([(n * math.pi) ** 2 - 1.0 for n in range(1, 33)])
    )
    slope_full = fit_log_growth(np.arange(10, 31), full[9:30]).slope
    slope_small = fit_log_growth(np.arange(10, 31), small[9:30]).slope
    assert slope_small < slope_full


def test_orthonormal_family_is_flat():
    gs = orthonormal_family_gram(16, TimeGrid(1.0, 400), seed=7)
    report = min_norm_biorth(gs)
    for norm in report.norms:
        assert norm == pytest.approx(1.0, abs=1e-10)
    fit = growth_fit(report)
    assert abs(fit.slope) < 1e-3


def test_norms_grow_with_family_size():
    first_norms = []
    for size in range(1, 5):
        exps = tuple(float(n) for n in range(1, size + 1))
        report = min_norm_biorth(gram(exps, None))
        first_norms.append(report.norms[0])
    assert all(b > a for a, b in zip(first_norms, first_norms[1:]))


def test_minimality_against_perturbations():
    # rebuild the first dual element from the Gram solve, check it is
    # biorthogonal under the grid inner product, then verify that adding any
    # family-orthogonal perturbation only ever increases the norm
    exps = (1.0, 2.5, 4.0)
    horizon = 1.0
    grid = TimeGrid(horizon, 2000)
    report = min_norm_biorth(gram(exps, horizon))
    rows = np.array([np.exp(-e * grid.nodes) for e in exps])
    g_float = np.array(
        [
            [
                (1.0 - math.exp(-(ei + ej) * horizon)) / (ei + ej)
                for ej in exps
            ]
            for ei in exps
        ]
    )
    alpha = np.linalg.solve(g_float, np.array([1.0, 0.0, 0.0]))
    q1 = alpha @ rows
    for m in range(3):
        want = 1.0 if m == 0 else 0.0
        # trapezoid pairings carry O(dt^2) error scaled by the coefficients
        assert trapezoid_inner(grid, q1, rows[m]) == pytest.approx(want, abs=1e-4)
    assert math.sqrt(alpha[0]) == pytest.approx(report.norms[0], rel=1e-10)
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        g = rng.standard_normal(grid.size)
        proj = np.linalg.solve(
            g_float, np.array([trapezoid_inner(grid, g, r) for r in rows])
        )
        p = g - proj @ rows
        candidate = q1 + p
        for m in range(3):
            want = 1.0 if m == 0 else 0.0
            assert trapezoid_inner(grid, candidate, rows[m]) == pytest.approx(
                want, abs=1e-4
            )
        norm_candidate = math.sqrt(trapezoid_inner(grid, candidate, candidate))
        assert norm_candidate > report.norms[0]


def test_precision_escalation_warns_and_records():
    exps = tuple((n * math.pi) ** 2 for n in range(1, 13))
    with pytest.warns(UserWarning, match="escalated"):
        report = min_norm_biorth(gram(exps, None, precision=64))
    assert report.precision_used > 64
    assert len(report.escalations) >= 2
    assert report.escalations[0][1] > RESIDUAL_GATE
    assert report.escalations[-1][1] < RESIDUAL_GATE


def test_singular_empirical_matrix_fails_loudly():
    gs = empirical_gram(np.ones((2, 2)), precision=64)
    with pytest.raises(PrecisionError, match="ill conditioned"):
        min_norm_biorth(gs)


def test_growth_fit_validation():
    with pytest.raises(ValueError):
        fit_log_growth([1.0], [2.0])
    report = BiorthReport(
        indices=tuple(range(1, 6)),
        norms=(1.0,) * 5,
        log_norms=(0.0,) * 5,
        residuals=(0.0,) * 5,
        residual=0.0,
        precision_used=64,
        escalations=((64, 0.0),),
        diag=(1.0,) * 5,
    )
    with pytest.raises(ValueError):
        growth_fit(report)


def test_single_mode_control_closed_form():
    # family of one mode, memoryless: the minimal norm has a two-line formula
    lam2 = math.pi**2
    sweep = control_norm_sweep(
        family=1,
        active_counts=(1,),
        horizon=1.0,
        memory_constant=0.0,
        initial=InitialData.inverse_index(),
    )
    expected = math.sqrt(2.0 * lam2) * math.exp(-lam2) / math.sqrt(
        1.0 - math.exp(-2.0 * lam2)
    )
    assert sweep.norms[0] == pytest.approx(expected, rel=1e-10)


def test_control_sweep_contrast():
    counts = tuple(range(1, 7))
    memoryless = control_norm_sweep(
        family=12,
        active_counts=counts,
        horizon=1.0,
        memory_constant=0.0,
        initial=InitialData.inverse_index(),
    )
    memory = control_norm_sweep(
        family=12,
        active_counts=counts,
        horizon=1.0,
        memory_constant=1.0,
        initial=InitialData.inverse_index(),
    )
    assert memoryless.tail_ratio < 2.0
    assert abs(memoryless.slope) < 0.5
    assert memory.norms[-1] / memory.norms[0] > 10.0
    assert memory.slope > 0.5
    assert memory.residual < 1e-20
    assert memoryless.residual < 1e-20


def test_control_sweep_validation():
    with pytest.raises(ValueError):
        control_norm_sweep(
            family=4,
            active_counts=(1, 5),
            horizon=1.0,
            memory_constant=0.0,
            initial=InitialData.zero(),
        )
    with pytest.raises(ValueError):
        control_norm_sweep(
            family=4,
            active_counts=(),
            horizon=1.0,
            memory_constant=0.0,
            initial=InitialData.zero(),
        )
