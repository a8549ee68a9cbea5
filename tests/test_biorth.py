"""Biorthogonal norms, the Cauchy oracle, and the control sweeps.

Hand-checkable anchor: for exponents {1, 2} on (0, infinity) the Gram matrix
is [[1/2, 1/3], [1/3, 1/4]] with determinant 1/72, so the inverse diagonal is
(18, 36) exactly. Everything else is gated against the closed-form Cauchy
inverse or against resampled trapezoid arithmetic.
"""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, from_rational

from memheat import NumericalError, PrecisionError, TimeGrid, biorth
from memheat.biorth import (
    RESIDUAL_GATE,
    BiorthReport,
    _control_gram,
    _ExactVector,
    _spd_inverse,
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
    with workprec(256):
        g_short = gram(exps, 0.5).build()
        g_long = gram(exps, 2.0).build()
        g_inf = gram(exps, None).build()
    for i in range(2):
        for j in range(2):
            assert float(g_short[i][j]) < float(g_long[i][j]) < float(g_inf[i][j])


def _gram_matrix_reference(exps, horizon):
    """The Gram entries as the mpf expression, each exponent converted per entry."""
    T = None if horizon is None else mpf(horizon)
    return [
        [
            1 / s if T is None else (1 - mp.exp(-s * T)) / s
            for s in (mpf(x) + mpf(y) for y in exps)
        ]
        for x in exps
    ]


@pytest.mark.parametrize("bits", [53, 64, 256, 512])
@pytest.mark.parametrize("horizon", [None, 1.0, 0.37], ids=["infinite", "T=1", "T=0.37"])
def test_gram_entries_keep_the_bits_of_the_mpf_expression(horizon, bits):
    exps = [(n * math.pi) ** 2 - 1.0 for n in range(1, 13)] + [0.01, 7.5, 1e3 / 3]
    with workprec(bits):
        got = gram(exps, horizon).build()
        want = _gram_matrix_reference(exps, horizon)
    assert [[x._mpf_ for x in row] for row in got] == [[x._mpf_ for x in row] for row in want]


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


def _cauchy_log_diag_outer(x):
    """The closed form over full n x n arrays: the row-at-a-time form's oracle."""
    n = len(x)
    sums = np.add.outer(x, x)
    diffs = np.abs(np.subtract.outer(x, x))
    off = ~np.eye(n, dtype=bool)
    log_ratio = np.zeros((n, n))
    log_ratio[off] = np.log(sums[off]) - np.log(diffs[off])
    warns = bool(n > 1 and diffs[off].min() < 1e-9 * x.max())
    return np.log(2.0 * x) + 2.0 * log_ratio.sum(axis=1), warns


@st.composite
def cauchy_families(draw):
    """1-300 distinct rates over up to twelve decades, some nearly coincident.

    Hypothesis draws the shape (size, span, share of near-twins); a drawn
    seed fills in the rates, which keeps an example cheap at 300 members.
    """
    n = draw(st.integers(1, 300))
    low = draw(st.floats(-6.0, 3.0))
    span = draw(st.floats(0.0, 12.0))
    twins = draw(st.sampled_from((0.0, 0.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    x = 10.0 ** rng.uniform(low, low + span, n)
    near = rng.random(n) < twins
    x[near] = x[np.roll(near, -1)] * (1.0 + rng.uniform(1e-14, 1e-10, near.sum()))
    x = np.unique(x)
    return x[rng.permutation(len(x))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cauchy_families())
def test_closed_form_rows_equal_the_outer_product_form(x):
    want, warns = _cauchy_log_diag_outer(x)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cauchy_inverse_log_diag(x)
    assert got.tobytes() == want.tobytes()
    assert [str(w.message).split(":")[0] for w in caught] == ["near-coincident exponents"] * warns


def test_closed_form_memory_is_linear_in_the_family():
    # the outer-product form peaked at 49 MB here, in six 1000 x 1000 arrays
    exps = np.array([(n * math.pi) ** 2 - 1.0 for n in range(1, 1001)])
    tracemalloc.start()
    try:
        cauchy_inverse_log_diag(exps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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


def test_first_rung_reuses_the_built_gram(monkeypatch):
    # gram() builds nothing; each rung of the ladder builds the entries once,
    # at that rung's precision
    calls = []
    build = biorth._gram_matrix
    monkeypatch.setattr(
        biorth, "_gram_matrix", lambda *args: calls.append(mp.prec) or build(*args)
    )
    exps = tuple((n * math.pi) ** 2 for n in range(1, 13))
    min_norm_biorth(gram(exps, None, precision=256))
    assert calls == [256]
    calls.clear()
    with pytest.warns(UserWarning, match="escalated"):
        report = min_norm_biorth(gram(exps, None, precision=64))
    assert calls == [bits for bits, _ in report.escalations]
    assert len(calls) >= 2


def test_singular_empirical_matrix_fails_loudly():
    gs = empirical_gram(np.ones((2, 2)), precision=64)
    with pytest.raises(PrecisionError, match="ill conditioned"):
        min_norm_biorth(gs)


# a gate nothing can pass walks every rung of the ladder, then fails loudly
LADDER_TOP = "after 256, 512, 1024 bits; the system is too ill conditioned"


def test_biorth_ladder_top_raises(monkeypatch):
    monkeypatch.setattr(biorth, "RESIDUAL_GATE", 0.0)
    with pytest.raises(PrecisionError, match=LADDER_TOP):
        min_norm_biorth(gram((1.0, 2.0, 3.0), None))


def test_control_ladder_top_raises(monkeypatch):
    monkeypatch.setattr(biorth, "RESIDUAL_GATE", 0.0)
    with pytest.raises(PrecisionError, match=LADDER_TOP):
        control_norm_sweep(
            family=4,
            active_counts=(1, 2),
            horizon=1.0,
            memory_constant=1.0,
            initial=InitialData.inverse_index(),
        )


def _record_ladders(monkeypatch):
    """Collect what every `_ladder_solve` call returns."""
    solves = []
    ladder = biorth._ladder_solve
    monkeypatch.setattr(
        biorth, "_ladder_solve", lambda *args: solves.append(ladder(*args)) or solves[-1]
    )
    return solves


def test_control_sweep_records_escalations(monkeypatch):
    # below 64 bits the control Gram of twelve modes is not even positive
    # definite in working arithmetic: an infinite residual that doubles. The
    # 64-bit miss of the 6 read columns (4e-13) is 26 bits short: 64 + 26 + 8
    # rounds up to 128
    solves = _record_ladders(monkeypatch)
    sweep = control_norm_sweep(
        family=12,
        active_counts=range(1, 7),
        horizon=1.0,
        memory_constant=1.0,
        initial=InitialData.inverse_index(),
        precision=16,
    )
    ((_, _, bits, attempts),) = solves
    assert [b for b, _ in attempts] == [16, 32, 64, 128]
    assert attempts[0][1] == math.inf
    assert attempts[-2][1] > RESIDUAL_GATE
    assert attempts[-1] == (bits, sweep.residual) == (sweep.precision_used, sweep.residual)
    assert sweep.residual < RESIDUAL_GATE
    reference = control_norm_sweep(
        family=12,
        active_counts=range(1, 7),
        horizon=1.0,
        memory_constant=1.0,
        initial=InitialData.inverse_index(),
        precision=sweep.precision_used,
    )
    assert sweep.norms == reference.norms


def test_sanity_gram_is_exactly_symmetric():
    # the Cholesky solve reads one triangle, so the float orthonormalized
    # Gram must reach extended precision exactly symmetric
    gs = orthonormal_family_gram(16, TimeGrid(1.0, 400), seed=7)
    with workprec(gs.precision):
        G = gs.build()
    assert G == [list(col) for col in zip(*G)]


@st.composite
def distinct_exponents(draw):
    # geometric spacing of at least 5% keeps the Cauchy matrix within reach
    # of the ladder while still exercising arbitrary rates
    start = draw(st.floats(min_value=0.05, max_value=50.0))
    ratios = draw(st.lists(st.floats(min_value=1.05, max_value=4.0), max_size=11))
    return np.cumprod([start] + ratios)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(distinct_exponents())
def test_gram_solve_matches_cauchy_closed_form(exps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # escalation is allowed
        report = min_norm_biorth(gram(exps, None, precision=256))
    closed = 0.5 * cauchy_inverse_log_diag(exps)
    assert np.max(np.abs(np.array(report.log_norms) - closed)) < 1e-12


# ---------------------------------------------------------------------------
# The exact dot-product kernel against mpmath's fdot
# ---------------------------------------------------------------------------


@st.composite
def fdot_case(draw):
    """A working precision and two mpf vectors whose products span <= 2 prec.

    Every entry is m * 2**(base + k) with |m| < 2**(prec/2) and
    0 <= k <= prec/2, so each lowest set bit lies in [base, base + prec] and
    each product's in a window of 2 prec bits: the range in which fdot's
    mpf_sum is exact before its one rounding. Hypothesis draws the shape
    (precision, base, length, share of exact zeros); a drawn seed fills in
    the entries, which keeps an example cheap at 70 entries.
    """
    prec = draw(st.sampled_from((53, 266, 522)))
    half = prec // 2
    base = draw(st.integers(-4 * prec, prec))
    n = draw(st.integers(0, 70))
    zeros = draw(st.sampled_from((0.0, 0.3, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        if rng.random() < zeros:
            return mp.zero
        m = rng.randrange(-(2**half) + 1, 2**half)
        return mp.make_mpf(from_man_exp(m, base + rng.randint(0, half)))

    return prec, [entry() for _ in range(n)], [entry() for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fdot_case())
def test_exact_dot_equals_fdot_bit_for_bit(case):
    prec, xs, ys = case
    with workprec(prec):
        got = _ExactVector(xs).dot(_ExactVector(ys))
        assert got._mpf_ == mp.fdot(xs, ys)._mpf_


def test_exact_dot_cancels_to_exact_zero():
    with workprec(53):
        a, b = mpf(3) / 7, mpf(2) ** -90
        xs, ys = [a, b, a], [b, a, -2 * b]
        assert _ExactVector(xs).dot(_ExactVector(ys))._mpf_ == mp.zero._mpf_
        assert mp.fdot(xs, ys) == 0


@pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
def test_exact_vector_refuses_special_values(special):
    # mpf infinities and nan have mantissa 0; read as 0 they would vanish
    # from a dot product that mpmath's fdot makes infinite or nan
    with pytest.raises(ValueError, match="infinity or a nan"):
        _ExactVector([mpf(1), mpf(special), mpf(2)])
    # the ladder takes the refusal as an infinite residual on every rung
    gs = empirical_gram(np.array([[1.0, float(special)], [float(special), 1.0]]))
    with pytest.raises(PrecisionError, match="inf still above"):
        min_norm_biorth(gs)


def _spd_inverse_reference(G):
    """The inverse as mpmath computes it: cholesky, then fdot substitutions."""
    n = len(G)
    with mp.extraprec(10):
        L = mp.cholesky(mp.matrix(G)).tolist()
        Lt = [list(col) for col in zip(*L)]
        cols = []
        for j in range(n):
            y = [mp.zero] * n
            for i in range(j, n):
                y[i] = ((1 if i == j else 0) - mp.fdot(L[i][j:i], y[j:i])) / L[i][i]
            x = [mp.zero] * n
            for i in reversed(range(n)):
                x[i] = (y[i] - mp.fdot(Lt[i][i + 1 :], x[i + 1 :])) / L[i][i]
            cols.append(x)
    return cols


@pytest.mark.parametrize(
    "build",
    [
        lambda: _control_gram(60, 1.0, 0.0),
        lambda: _control_gram(60, 1.0, 1.0),
        lambda: gram([(n * math.pi) ** 2 - 1.0 for n in range(1, 13)], None).build(),
    ],
    ids=["control-60-memoryless", "control-60-memory", "cauchy-12"],
)
def test_spd_inverse_matches_mpmath_entry_for_entry(build):
    with workprec(256):
        G = build()
        got = _spd_inverse(G)
        want = _spd_inverse_reference(G)
    assert [[x._mpf_ for x in col] for col in got] == [
        [x._mpf_ for x in col] for col in want
    ]


def _residual_by_fdot(G, cols):
    """|G X - I| as mpmath computes it, entry [i][j] for row i and column j."""
    return [
        [abs(mp.fdot(g, x) - int(i == j)) for j, x in enumerate(cols)]
        for i, g in enumerate(G)
    ]


@pytest.mark.parametrize("c", [1.0, 0.0], ids=["memory", "memoryless"])
def test_family_60_control_sweep_passes_at_256(monkeypatch, c):
    # the sweep reads the first 12 of 60 inverse columns; gated over all 60
    # rows they pass at 256 bits (about 1e-38), where the full inverse misses
    # by about 2x
    solves = _record_ladders(monkeypatch)
    sweep = control_norm_sweep(60, range(1, 13), 1.0, c, InitialData.inverse_index(), 256)
    ((cols, residuals, bits, attempts),) = solves
    assert [b for b, _ in attempts] == [256] and bits == sweep.precision_used
    assert len(cols) == 12 and all(len(x) == 60 for x in cols)
    with workprec(256):
        G = _control_gram(60, 1.0, c)
        read = _residual_by_fdot(G, _spd_inverse_reference(G)[:12])
    assert len(read) == 60
    assert residuals == tuple(float(max(row)) for row in read)
    assert attempts[0][1] == sweep.residual == float(max(max(row) for row in read))
    assert sweep.residual < RESIDUAL_GATE


@pytest.mark.parametrize(
    "build,counts",
    [
        (lambda: _control_gram(60, 1.0, 1.0), (1, 12, 59)),
        (lambda: gram([(n * math.pi) ** 2 - 1.0 for n in range(1, 13)], None).build(), (1, 6)),
    ],
    ids=["control-60-memory", "cauchy-12"],
)
def test_leading_columns_are_those_of_the_full_solve(build, counts):
    # a column does not depend on how many are asked for: the full inverse
    # is the oracle for every column-limited solve
    with workprec(256):
        G = build()
        full = [[x._mpf_ for x in col] for col in _spd_inverse(G)]
        for count in counts:
            got = _spd_inverse(G, count)
            assert [[x._mpf_ for x in col] for col in got] == full[:count]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.floats(0.0, 5.0),
)
def test_sweep_equals_the_one_formed_from_full_inverse_columns(size, c):
    family, active = size
    counts = range(1, active + 1)
    initial = InitialData.inverse_index()
    sweep = control_norm_sweep(family, counts, 1.0, c, initial)

    def full_inverse(build, bits, count):
        assert count == active
        with workprec(sweep.precision_used):
            cols = _spd_inverse_reference(build())
        return cols, None, sweep.precision_used, ((sweep.precision_used, 0.0),)

    with mock.patch.object(biorth, "_ladder_solve", full_inverse):
        reference = control_norm_sweep(family, counts, 1.0, c, initial)
    assert sweep.norms == reference.norms
    assert sweep.log_norms == reference.log_norms


def test_every_rung_records_its_full_maximum(monkeypatch):
    # a Householder reflection of a diagonal spread over twelve decades
    v, d = (3, 9, 7, 2, 6), (1.0, 1e-3, 1e-6, 1e-9, 1e-12)
    vv = sum(x * x for x in v)
    q = [[(i == k) - 2 * v[i] * v[k] / vv for k in range(5)] for i in range(5)]
    m = [[sum(q[i][k] * d[k] * q[j][k] for k in range(5)) for j in range(5)] for i in range(5)]
    gs = empirical_gram(np.array(m))
    monkeypatch.setattr(biorth, "RESIDUAL_GATE", 0.0)
    missed = []
    step = biorth._next_bits
    monkeypatch.setattr(biorth, "_next_bits", lambda b, r: missed.append((b, r)) or step(b, r))
    with pytest.raises(PrecisionError, match=LADDER_TOP) as err:
        min_norm_biorth(gs)
    with workprec(gs.precision):
        G = gs.build()
    full = []
    for bits in (256, 512, 1024):
        with workprec(bits):
            resid = _residual_by_fdot(G, _spd_inverse_reference(G))
        full.append(float(max(max(row) for row in resid)))
    assert missed == [(256, full[0]), (512, full[1])]
    assert f"Gram residual {full[2]:.3e} still above" in str(err.value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(16, biorth.MAX_PRECISION_BITS - 1),
    st.floats(RESIDUAL_GATE, math.inf),
)
def test_next_rung_is_above_and_at_most_doubled(bits, resid):
    doubled = min(biorth.MAX_PRECISION_BITS, -(-2 * bits // 32) * 32)
    step = biorth._next_bits(bits, resid)
    assert bits < step <= doubled
    assert step % 32 == 0
    # an infinite residual says nothing about the bits missing
    assert biorth._next_bits(bits, math.inf) == doubled


def _control_gram_reference(family, horizon, c_value):
    """The control Gram with all four terms per entry, zero coefficients too."""
    T, c = mpf(horizon), mpf(c_value)
    terms, gammas = [], []
    for n in range(1, family + 1):
        rp, rm, A, B = biorth._influence_profile((mpf(n) * mp.pi) ** 2, c)
        terms.append(((A, rp, mp.exp(rp * T)), (B, rm, mp.exp(rm * T))))
        gammas.append(biorth._trace_scale(n))
    G = mp.zeros(family, family)
    for i in range(family):
        for j in range(i, family):
            entry = 0
            for a, r, e in terms[i]:
                for b, q, f in terms[j]:
                    s = r + q
                    entry += a * b * (T if s == 0 else (e * f - 1) / s)
            G[i, j] = G[j, i] = mp.re(entry) / (gammas[i] * gammas[j])
    return G


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("c", [0.0, 1.0], ids=["memoryless", "memory"])
def test_control_gram_skips_only_exact_zero_terms(c, bits):
    with workprec(bits):
        if c == 0.0:  # the slow root and its coefficient vanish exactly
            for n in (1, 30, 60):
                rp, _, A, _ = biorth._influence_profile((mpf(n) * mp.pi) ** 2, mpf(0))
                assert rp == 0 and A == 0
        got = _control_gram(60, 1.0, c)
        want = _control_gram_reference(60, 1.0, c)
    assert [x._mpf_ for row in got for x in row] == [x._mpf_ for x in want]


@settings(max_examples=70, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 20),
    st.floats(0.0, 12.0),  # mode 1's roots are complex once c > pi^2/4
    st.floats(0.1, 3.0),
    st.sampled_from([53, 64, 256, 512]),
)
@example(20, 10.0, 1.0, 512)
def test_control_gram_keeps_the_bits_of_the_reference(family, c, horizon, bits):
    # every entry keeps the bits of the object-arithmetic reference that
    # forms all four terms: the real pairs, formed on libmp tuples with
    # shortcuts, and the pairs with a complex-root row (c > pi^2/4), formed
    # by the mpf/mpc expression over the nonzero terms
    with workprec(bits):
        if c == 0.0:  # the slow root and its coefficient vanish exactly
            for n in (1, family):
                rp, _, A, _ = biorth._influence_profile((mpf(n) * mp.pi) ** 2, mpf(0))
                assert rp == 0 and A == 0
        got = _control_gram(family, horizon, c)
        want = _control_gram_reference(family, horizon, c)
    assert [x._mpf_ for row in got for x in row] == [x._mpf_ for x in want]


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
            initial=InitialData("zero"),
        )
    with pytest.raises(ValueError):
        control_norm_sweep(
            family=4,
            active_counts=(),
            horizon=1.0,
            memory_constant=0.0,
            initial=InitialData("zero"),
        )
    # a sweep point steering no mode asks the solve for no column
    with pytest.raises(ValueError, match="within 1..family"):
        control_norm_sweep(
            family=4,
            active_counts=(0, 2),
            horizon=1.0,
            memory_constant=0.0,
            initial=InitialData("zero"),
        )


def _exact(x):
    """An mpf as the exact rational it stands for."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_sweep_norms_are_exact_quadratic_forms_rounded_once(top, seed):
    # the running sum of the sweep against the exact rational
    # sum_{i,j<N} b_i b_j X_ji, rounded once: entries spread over 600
    # binades, with zeros, and columns longer and more than the sweep reads
    rng = random.Random(seed)

    def draw():
        if rng.random() < 0.1:
            return mp.zero
        return mpf(rng.getrandbits(300) - 2**299) * mpf(2) ** rng.randint(-300, 300)

    with workprec(256):
        b = [draw() for _ in range(top)]
        cols = [[draw() for _ in range(top + 2)] for _ in range(top + 1)]
        counts = sorted(rng.sample(range(1, top + 1), rng.randint(1, top)))
        got = biorth._control_norms2(b, cols, counts)
        for n, value in zip(counts, got):
            exact = sum(
                _exact(b[i]) * _exact(b[j]) * _exact(cols[j][i])
                for i in range(n)
                for j in range(n)
            )
            want = from_rational(exact.numerator, exact.denominator, mp.prec, "n")
            assert value._mpf_ == want
