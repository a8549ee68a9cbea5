"""Minimal-norm biorthogonal families to decaying exponentials.

The Gram matrix of {e^{-mu2_n t}} in L2(0, T) is notoriously ill conditioned;
the blow-up of its inverse diagonal IS the phenomenon under study (minimal
biorthogonal norms growing exponentially in the mode index), so round-off
must be kept strictly smaller than the real growth. Everything here runs in
arbitrary-precision arithmetic (mpmath). Both Gram matrices (biorthogonal
and control) go through one precision ladder: a Cholesky factor and one
forward and one back substitution per column that the caller reads, with 10
guard bits, then the residual max |G X - I| over all n rows of those columns
at the working precision against a 1e-20 gate. The biorthogonal norms read
every column; a control sweep steering up to N modes reads the first N. So
the gate covers every number an output depends on. The residual tracks the
Cholesky backward-error bound kappa * 2^-bits, so a miss steps up by the
bits it was short plus a margin, rounded up to a multiple of 32 and never
more than doubling, up to 1024 bits; past that the ladder fails loudly.

Every dot product in the factor, the substitutions and the residual is
exact with one rounding, the same as mpmath's fdot: the mpf entries become
integer mantissas over one common power of two (a long accumulator in
Python integers), the products are summed exactly, and the sum is rounded
once at the working precision. A control sweep's squared norms are one
running exact sum, rounded once per sweep point.

Both Gram builders form their real entries on mpmath's libmp tuples, one
libmp call for each operation of the mpf expression, in its order and with
its rounding, so every entry has the bits that expression gives. The
control Gram takes one exact shortcut there: where a product e f of two
exponentials lies below 2^(-prec-4), e f - 1 is taken as exactly -1, which
is what it rounds to at round-to-nearest. A control-Gram entry that pairs a
row of complex roots (lam2 < 4c) is the mpf/mpc expression itself; no
benchmark workload builds such a row.

Two independent oracles keep the computation honest: the infinite-horizon
Gram matrix is a Cauchy matrix with a classical closed-form inverse, and the
constant-kernel control sweeps use exact two-exponential mode profiles
instead of sampled dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul

import numpy as np
from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fnone,
    fone,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_rdiv_int,
    mpf_sub,
    mpf_sum,
)

from .errors import NumericalError, PrecisionError
from .grids import TimeGrid
from .moments import InitialData

RESIDUAL_GATE = 1e-20
MAX_PRECISION_BITS = 1024
# Bits a step adds beyond the miss. log2(residual * 2^bits) stays within 2
# bits from rung to rung: 190.4-191.8 on the full inverses of the family-60
# control Grams (129.8-131.3 on their first 12 columns, 256-320 bits) and
# 501.0-502.8 at family 150, with and without memory, and within 2 bits on
# 300 random Cauchy Grams of up to 12 members. So a step of the miss plus 8
# bits lands at least 2^6 below the gate even before the rounding to 32.
MARGIN = 8


@dataclass(frozen=True)
class GramSystem:
    """A symmetric positive-definite Gram matrix, given by its builder.

    The ladder calls `build()` once per rung from `precision` bits on; it
    returns a list of rows of mpf at the current working precision.
    """

    build: object  # () -> list of rows of mpf at the working precision
    precision: int


def gram(exponents, horizon, precision: int = 256) -> GramSystem:
    """Gram matrix of {e^{-mu2 t}} over (0, T) or (0, infinity).

    Finite-horizon entries are (1 - e^{-(mu_i+mu_j)T})/(mu_i+mu_j); letting
    T grow they increase monotonically to the Cauchy entries 1/(mu_i+mu_j).
    `horizon` None is the infinite horizon. Nothing is built until a rung asks.
    """
    exps = [float(x) for x in exponents]
    if any(x <= 0 for x in exps):
        raise ValueError("exponents must be positive")
    if len(set(exps)) != len(exps):
        raise NumericalError(
            "duplicate exponents make the Gram matrix singular; the family "
            "must consist of distinct rates"
        )
    return GramSystem(lambda: _gram_matrix(exps, horizon), precision)


def _gram_matrix(exps, horizon):
    """Rows of entries at the current working precision (callers set workprec).

    Each exponent is converted once; an entry is 1/s or (1 - e^{-sT})/s on
    libmp tuples, with the roundings of that mpf expression.
    """
    prec, rnd = mp._prec_rounding
    n = len(exps)
    G = [[None] * n for _ in range(n)]
    xs = [mpf(x)._mpf_ for x in exps]
    T = None if horizon is None else mpf(horizon)._mpf_
    for i in range(n):
        for j in range(i, n):
            s = mpf_add(xs[i], xs[j], prec, rnd)
            if T is None:
                entry = mpf_rdiv_int(1, s, prec, rnd)
            else:
                decay = mpf_exp(mpf_mul(mpf_neg(s), T, prec, rnd), prec, rnd)
                entry = mpf_div(mpf_sub(fone, decay, prec, rnd), s, prec, rnd)
            G[i][j] = G[j][i] = mp.make_mpf(entry)
    return G


def empirical_gram(matrix: np.ndarray, precision: int = 256) -> GramSystem:
    """Wrap a numerically computed symmetric Gram matrix; every rung solves it as is."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    # A float product such as (rows * w) @ rows.T is symmetric only to
    # round-off, and the Cholesky solve reads one triangle; mp.convert keeps
    # every double exact.
    G = [[mp.convert(v) for v in row] for row in 0.5 * (matrix + matrix.T)]
    return GramSystem(lambda: G, precision)


def orthonormal_family_gram(
    count: int, grid: TimeGrid, seed: int, precision: int = 256
) -> GramSystem:
    """Gram matrix of a random family orthonormalized on the grid.

    Serves as the bounded sanity control: minimal biorthogonal norms of an
    orthonormal family are all 1, so any fitted growth slope should vanish.
    The orthonormalization runs through the same trapezoid inner product as
    the rest of the pipeline (this is an honest end-to-end exercise, not a
    hardcoded identity matrix).
    """
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, grid.size))
    weights = np.full(grid.size, grid.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    g0 = (rows * weights) @ rows.T
    chol = np.linalg.cholesky(g0)
    rows = np.linalg.solve(chol, rows)
    g1 = (rows * weights) @ rows.T
    return empirical_gram(g1, precision)


@dataclass(frozen=True)
class BiorthReport:
    """Minimal biorthogonal norms of a Gram system, with solve diagnostics."""

    indices: tuple
    norms: tuple  # float norms (may be astronomically large but finite)
    log_norms: tuple  # natural logs, computed before leaving extended precision
    residuals: tuple  # per-index biorthogonality defect (row max of |G G^-1 - I|)
    residual: float  # max defect over all rows (the gated quantity)
    precision_used: int
    escalations: tuple  # (bits, residual) for every attempt, last one passing


class _ExactVector:
    """mpf values held exactly as integer mantissas times one power of two.

    Entry k is mans[k] * 2**exp, with exp the lowest exponent appended so far;
    appending a value below it shifts the earlier mantissas up. An infinity
    or a nan (mantissa 0, nonzero exponent) raises ValueError: read as 0 it
    would silently drop out of a dot product.
    """

    __slots__ = ("mans", "exp")

    def __init__(self, values=()):
        self.mans = []
        self.exp = None
        for value in values:
            self.append(value)

    def append(self, value):
        sign, man, exp, _ = value._mpf_
        if not man:
            if exp:
                raise ValueError("an infinity or a nan has no integer mantissa")
            self.mans.append(0)
            return
        if sign:
            man = -man
        if self.exp is None:
            self.exp = exp
        elif exp < self.exp:
            shift = self.exp - exp
            self.mans = [m << shift for m in self.mans]
            self.exp = exp
        self.mans.append(man << (exp - self.exp))

    def dot(self, other):
        """sum_k self[k] * other[k], exact, rounded once at the working precision.

        This is mpmath's fdot bit for bit while the products lie within
        2 prec bits of each other; past that fdot's mpf_sum drops terms and
        this sum is the more accurate one.
        """
        total = sum(map(mul, self.mans, other.mans))
        if not total:
            return mp.zero
        prec, rnd = mp._prec_rounding
        return mp.make_mpf(from_man_exp(total, self.exp + other.exp, prec, rnd))


def _cholesky(A):
    """mpmath's Cholesky factor of the rows A, entry for entry.

    Returns the rows of L below the diagonal (as mpf lists and as exact
    vectors) and its diagonal. L_ij = (A_ij - sum_k L_ik L_jk) / L_jj, each
    sum exact and rounded once, as mpmath's fdot does. The diagonal is
    s / sqrt(s) for s = A_jj - sum_k L_jk^2, not sqrt(s): mpmath's inner loop
    starts at i = j, so it overwrites sqrt(s) with (A_jj - t) / sqrt(s), and
    every later entry of the column divides by that. Raises ValueError when
    s < eps, as mpmath does.
    """
    lower, exact, diag = [], [], []
    for i, a in enumerate(A):
        row = []
        vec = _ExactVector()
        for j in range(i):
            row.append((a[j] - vec.dot(exact[j])) / diag[j])
            vec.append(row[j])
        s = a[i] - vec.dot(vec)
        if s < mp.eps:
            raise ValueError("matrix is not positive-definite")
        diag.append(s / mp.sqrt(s))
        lower.append(row)
        exact.append(vec)
    return lower, exact, diag


def _spd_inverse(G, count: int | None = None):
    """The first `count` columns of G^{-1} by Cholesky; None asks for all n.

    The factor is the whole of G's, with the 10 guard bits of mp.inverse;
    each returned column takes one forward and one back substitution over
    all n rows. The factor and both substitutions take their dot products
    exactly with one rounding, the same as mpmath's fdot, so the columns are
    those of mpmath's cholesky followed by fdot substitutions, and a column
    does not depend on how many are asked for. The columns stay at the
    guarded precision: rounding them to the working precision raises the
    residual about a thousandfold. Raises ValueError if G is not positive
    definite at this precision.
    """
    n = len(G)
    cols = []
    with mp.extraprec(10):
        lower, exact, diag = _cholesky(G)
        # column i of L below the diagonal, bottom entry first
        below = [
            _ExactVector(lower[k][i] for k in reversed(range(i + 1, n)))
            for i in range(n)
        ]
        for j in range(n if count is None else count):
            y = [mp.zero] * n
            ys = _ExactVector(y[:j])  # zeros above row j
            for i in range(j, n):
                y[i] = ((1 if i == j else 0) - exact[i].dot(ys)) / diag[i]
                ys.append(y[i])
            x = [mp.zero] * n
            xs = _ExactVector()  # x[n-1], x[n-2], ... as they are solved
            for i in reversed(range(n)):
                x[i] = (y[i] - below[i].dot(xs)) / diag[i]
                xs.append(x[i])
            cols.append(x)
    return cols


def _next_bits(bits: int, resid) -> int:
    """The rung after a miss by `resid` at `bits`.

    The residual tracks the Cholesky backward-error bound kappa * 2^-bits, so
    the miss says how many bits are missing: bits + ceil(log2(resid / gate))
    + MARGIN, at most 2 * bits, rounded up to a multiple of 32 and capped at
    the ladder top. An infinite residual (a failed factor, or coincident
    roots) says nothing and doubles; so does a zero gate, as mpmath's log(0)
    is -inf.
    """
    missing = mp.ceil(mp.log(resid, 2) - mp.log(RESIDUAL_GATE, 2))
    step = min(2 * bits, bits + missing + MARGIN)
    return min(-(-int(step) // 32) * 32, MAX_PRECISION_BITS)


def _ladder_solve(build, bits: int, count: int | None = None):
    """The first `count` columns of the SPD inverse of `build()`, on a ladder.

    `build` runs once per rung, at that rung's working precision, starting at
    `bits`. Each returned column x_j is gated over all n rows of G: the
    defect of row i is max_j |(G x_j)_i - delta_ij| over the returned
    columns, taken exactly at the working precision on every rung, and a rung
    passes when the largest defect is below RESIDUAL_GATE, read at call time.
    So the gate covers every column the caller gets, and with it every number
    an output depends on; columns past `count` (None asks for all n) are
    neither solved nor gated. A miss steps to `_next_bits`. A matrix that is
    not positive definite or holds an infinity or a nan (ValueError), or mode
    roots that coincide at the working precision in the build
    (ZeroDivisionError), count as an infinite residual. Returns the columns,
    the per-row defects, the passing bits and every (bits, residual) attempt.
    """
    attempts = []
    while True:
        with workprec(bits):
            try:
                G = build()
                cols = _spd_inverse(G, count)
                exact_cols = [_ExactVector(x) for x in cols]
                row_resid = [
                    max(abs(g.dot(x) - int(i == j)) for j, x in enumerate(exact_cols))
                    for i, g in enumerate(map(_ExactVector, G))
                ]
            except (ValueError, ZeroDivisionError):
                resid = mp.inf
            else:
                resid = max(row_resid)
        attempts.append((bits, float(resid)))
        if resid < RESIDUAL_GATE:
            return cols, tuple(float(r) for r in row_resid), bits, tuple(attempts)
        if bits >= MAX_PRECISION_BITS:
            tried = ", ".join(str(b) for b, _ in attempts)
            raise PrecisionError(
                f"Gram residual {float(resid):.3e} still above the gate "
                f"{RESIDUAL_GATE:g} after {tried} bits; the system is too ill "
                "conditioned for the precision ladder"
            )
        bits = _next_bits(bits, float(resid))


def min_norm_biorth(gs: GramSystem) -> BiorthReport:
    """Minimal-norm biorthogonal family: norm_n^2 is the inverse Gram diagonal.

    The biorthogonality defect is measured per row as the maximum entry of
    |G G^{-1} - I|, and RESIDUAL_GATE applies to every row. The ladder
    starts at `gs.precision` and calls `gs.build` once per rung; if the gated
    residual misses, the precision steps up by the bits the miss says are
    missing and the solve reruns, failing loudly past the ladder's top.
    """
    cols, residuals, bits, attempts = _ladder_solve(gs.build, gs.precision)
    with workprec(bits):
        diag = tuple(col[i] for i, col in enumerate(cols))
        log_norms = tuple(float(mp.log(d) / 2) for d in diag)
        norms = tuple(float(mp.sqrt(d)) for d in diag)
    if len(attempts) > 1:
        warnings.warn(
            f"Gram solve escalated precision {attempts[0][0]} -> {bits} bits "
            f"to pass the residual gate "
            f"({attempts[-1][1]:.3e} < {RESIDUAL_GATE:g})",
            stacklevel=2,
        )
    return BiorthReport(
        indices=tuple(range(1, len(cols) + 1)),
        norms=norms,
        log_norms=log_norms,
        residuals=residuals,
        residual=attempts[-1][1],
        precision_used=bits,
        escalations=attempts,
    )


# ---------------------------------------------------------------------------
# Closed-form Cauchy oracle
# ---------------------------------------------------------------------------


def cauchy_inverse_log_diag(exponents: np.ndarray) -> np.ndarray:
    """log of the inverse diagonal of the Cauchy matrix 1/(x_i + x_j).

    The classical closed form is
        (C^{-1})_{nn} = 2 x_n * prod_{k != n} [(x_k + x_n)/(x_k - x_n)]^2,
    accumulated in log space because the products overflow long before the
    interesting family sizes are reached; one row at a time, in O(n) memory.
    """
    x = np.asarray(exponents, dtype=float)
    if np.any(x <= 0):
        raise ValueError("exponents must be positive")
    # the closest pair of a sorted family is adjacent
    if len(x) > 1 and np.diff(np.sort(x)).min() < 1e-9 * x.max():
        warnings.warn(
            "near-coincident exponents: the closed-form inverse is "
            "numerically fragile here",
            stacklevel=2,
        )
    log_ratio = np.empty(len(x))
    for i, xi in enumerate(x):
        s, d = x + xi, np.abs(x - xi)
        s[i] = d[i] = 1.0  # the diagonal adds log 1 - log 1 = +0.0
        log_ratio[i] = (np.log(s) - np.log(d)).sum()
    return np.log(2.0 * x) + 2.0 * log_ratio


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    residual: float  # rms of the fit residuals


def fit_log_growth(indices, log_values) -> GrowthFit:
    """Least-squares line through (n, log value)."""
    x = np.asarray(indices, dtype=float)
    y = np.asarray(log_values, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return GrowthFit(float(slope), rms)


def growth_fit(report: BiorthReport) -> GrowthFit:
    """Fit the log-norm growth over the upper half of the index range."""
    if len(report.indices) < 8:
        raise ValueError("need at least eight indices for a growth fit")
    half = len(report.indices) // 2
    return fit_log_growth(report.indices[half:], report.log_norms[half:])


# ---------------------------------------------------------------------------
# Constant-kernel control sweeps with exact two-exponential profiles
# ---------------------------------------------------------------------------
#
# For a constant kernel the projected dynamics are a second-order ODE, so
# the influence profile of a boundary control on mode n and the free value
# of the mode at the horizon are exact two-exponential expressions in the
# roots of r^2 + lam2 r + c lam2 = 0. Building the control Gram matrix from
# these closed forms (instead of sampled trajectories) removes quadrature
# error entirely; what remains is pure conditioning, which the extended
# precision handles.


def _mode_roots(lam2, c):
    disc = lam2 * lam2 - 4 * c * lam2
    root = mp.sqrt(disc)  # mpc when disc < 0; entries recombine to reals
    return (-lam2 + root) / 2, (-lam2 - root) / 2


def _influence_profile(lam2, c):
    """Coefficients (rp, rm, A, B) with psi(t) = A e^{rp t} + B e^{rm t}.

    psi is the kernel through which a boundary signal moves mode n:
    the zero-initial response to forcing g is -(psi * g).
    """
    rp, rm = _mode_roots(lam2, c)
    A = (rp + c) / (rp - rm)
    B = (rm + c) / (rm - rp)
    return rp, rm, A, B


def _free_end_value(lam2, c, xi, T):
    """Uncontrolled mode value at the horizon, started at xi."""
    rp, rm = _mode_roots(lam2, c)
    return xi * (rp * mp.exp(rp * T) - rm * mp.exp(rm * T)) / (rp - rm)


def _trace_scale(n):
    """Outward-normal trace of eigenfunction n at the right endpoint."""
    return mp.sqrt(2) * n * mp.pi * (-1) ** n


def _control_gram(family, horizon, c_value):
    """Gram matrix of the normalized influence kernels.

    Kernel n (time-flipped influence profile at the right endpoint) is
    normalized by its trace factor; scaling an equation and its target
    together leaves the minimal-norm control unchanged, and the smaller
    dynamic range helps the conditioning diagnostics.

    Entry (i, j) is re(sum a b (e f - 1)/s) / (gamma_i gamma_j) over the
    terms (a, r, e = e^{rT}) of rows i and j, s = r + q, with T in place of
    (e f - 1)/s where s = 0. A term whose coefficient is exactly zero adds an
    exact zero, so it is left out (in the memoryless case A = 0, so 3 of the
    4 terms per entry go).

    A pair of rows whose roots are both real is formed on libmp tuples,
    operation for operation and rounding for rounding as the mpf expression
    would be, so it keeps that expression's bits. Where |e f| < 2^(-prec-4),
    read off the tuples' exponents and bit counts (|x| < 2^(exp + bc)),
    e f - 1 rounds to exactly -1 at round-to-nearest, so the product is not
    formed. A pair with a row of complex roots (lam2 < 4c) is the mpf/mpc
    expression itself. No benchmark workload builds such a row: their control
    runs have c = 1 < pi^2/4, as has `control_contrast.json`; of the shipped
    configs only `control_complex.json` (c = 10) does.
    """
    prec, rnd = mp._prec_rounding
    horizon, c = mpf(horizon), mpf(c_value)
    terms, rows, gammas = [], [], []
    for n in range(1, family + 1):
        lam2 = (mpf(n) * mp.pi) ** 2
        rp, rm, A, B = _influence_profile(lam2, c)
        # e^{(r + q)T} = e^{rT} e^{qT}: one exponential per root, not per pair
        terms.append([(a, r, mp.exp(r * horizon)) for a, r in ((A, rp), (B, rm)) if a])
        # the same terms as libmp tuples; None marks a row of complex roots
        real = hasattr(rp, "_mpf_")
        rows.append([tuple(x._mpf_ for x in t) for t in terms[-1]] if real else None)
        gammas.append(_trace_scale(n)._mpf_)
    T = horizon._mpf_
    tiny = -prec - 4
    G = [[None] * family for _ in range(family)]
    for i in range(family):
        for j in range(i, family):
            entry = None
            if rows[i] is not None and rows[j] is not None:
                for a, r, e in rows[i]:
                    for b, q, f in rows[j]:
                        # int_0^T e^{(r+q)u} du, with the exact limit at r + q = 0
                        s = mpf_add(r, q, prec, rnd)
                        if s == fzero:
                            x = T
                        elif e[2] + e[3] + f[2] + f[3] <= tiny:  # |e f| < 2^tiny
                            x = mpf_div(fnone, s, prec, rnd)
                        else:
                            x = mpf_sub(mpf_mul(e, f, prec, rnd), fone, prec, rnd)
                            x = mpf_div(x, s, prec, rnd)
                        term = mpf_mul(mpf_mul(a, b, prec, rnd), x, prec, rnd)
                        # 0 + term would round term, already at prec, to itself
                        entry = term if entry is None else mpf_add(entry, term, prec, rnd)
            else:
                entry = 0
                for a, r, e in terms[i]:
                    for b, q, f in terms[j]:
                        s = r + q
                        entry += a * b * (horizon if s == 0 else (e * f - 1) / s)
                # complex roots recombine to real entries; re() drops the
                # conjugate-cancellation residue
                entry = mp.re(entry)._mpf_
            scale = mpf_mul(gammas[i], gammas[j], prec, rnd)
            G[i][j] = G[j][i] = mp.make_mpf(mpf_div(entry, scale, prec, rnd))
    return G


@dataclass(frozen=True)
class ControlSweep:
    """Minimal-norm control magnitudes as the steered mode count grows."""

    norms: tuple
    log_norms: tuple
    monotone: bool
    tail_ratio: float  # last norm over the norm six sweep points earlier
    slope: float | None  # fitted log-norm slope across the sweep; None for one point
    precision_used: int
    residual: float


def _control_norms2(b, cols, counts) -> list:
    """norm^2(N) = sum_{i, j < N} b_i b_j X_ji, X_ji = cols[j][i], for every
    N in counts, each rounded once at the working precision.

    One running sum grows from N - 1 to N by the products of row and column
    N - 1, so a sweep to N costs O(N^2) products, not O(N^3). A product of
    three mpf is exact, and mpmath's mpf_sum at precision 0 keeps the sum
    exact unless two terms lie over a million bits apart (then it drops the
    smaller, far below any rounding).
    """
    b = [x._mpf_ for x in b]
    totals = [fzero]
    for k in range(max(counts)):
        row = [mpf_mul(mpf_mul(b[k], b[j]), cols[j][k]._mpf_) for j in range(k + 1)]
        column = [mpf_mul(mpf_mul(b[i], b[k]), cols[k][i]._mpf_) for i in range(k)]
        totals.append(mpf_sum([totals[-1], *row, *column]))
    prec, rnd = mp._prec_rounding
    return [mp.make_mpf(mpf_pos(totals[n], prec, rnd)) for n in counts]


def control_norm_sweep(
    family: int,
    active_counts,
    horizon: float,
    memory_constant: float,
    initial: InitialData,
    precision: int = 256,
) -> ControlSweep:
    """Minimal L2 norm of a right-endpoint control steering the first N modes.

    The whole family of `family` modes is constrained to zero at the horizon;
    initial data sit on the first N modes (N sweeping over active_counts).
    The memoryless case (constant 0) stays bounded as N grows; a genuine
    constant kernel forces the norms up geometrically.
    """
    active_counts = tuple(int(n) for n in active_counts)
    if not active_counts or min(active_counts) < 1 or max(active_counts) > family:
        raise ValueError("active mode counts must be nonempty and within 1..family")
    # norm^2 = b^T G^-1 b with b zero past the steered modes reads only the
    # first max(active_counts) columns, so only those are solved and gated
    cols, _, bits, attempts = _ladder_solve(
        lambda: _control_gram(family, horizon, memory_constant),
        precision,
        max(active_counts),
    )
    norms, log_norms = [], []
    with workprec(bits):
        # targets: free end values of the steered modes, normalized like G
        T, c = mpf(horizon), mpf(memory_constant)
        b = [
            mp.re(_free_end_value((mpf(n) * mp.pi) ** 2, c, mpf(initial.value(n)), T))
            / _trace_scale(n)
            for n in range(1, max(active_counts) + 1)
        ]
        for count, n2 in zip(active_counts, _control_norms2(b, cols, active_counts)):
            if n2 <= 0:
                raise NumericalError(
                    "nonpositive squared control norm; the Gram solve "
                    "lost positive definiteness"
                )
            norm, log_norm = float(mp.sqrt(n2)), float(mp.log(n2) / 2)
            if not 0 < norm < math.inf:
                raise NumericalError(
                    f"the control norm at N = {count} is e^{log_norm:.6g}, outside "
                    "double range; shorten the horizon"
                )
            norms.append(norm)
            log_norms.append(log_norm)
    monotone = bool(np.all(np.diff(log_norms) >= 0))
    tail_ratio = norms[-1] / norms[max(len(norms) - 7, 0)]
    if len(active_counts) >= 2:
        slope = fit_log_growth(active_counts, log_norms).slope
    else:
        slope = None  # a single sweep point carries no growth information
    return ControlSweep(
        norms=tuple(norms),
        log_norms=tuple(log_norms),
        monotone=monotone,
        tail_ratio=float(tail_ratio),
        slope=slope,
        precision_used=bits,
        residual=attempts[-1][1],
    )
