"""Minimal-norm biorthogonal families to decaying exponentials.

The Gram matrix of {e^{-mu2_n t}} in L2(0, T) is notoriously ill conditioned;
the blow-up of its inverse diagonal IS the phenomenon under study (minimal
biorthogonal norms growing exponentially in the mode index), so round-off
must be kept strictly smaller than the real growth. Everything here runs in
arbitrary-precision arithmetic (mpmath), starting at a configured mantissa
size and escalating on residual failure rather than silently degrading.

Two independent oracles keep the computation honest: the infinite-horizon
Gram matrix is a Cauchy matrix with a classical closed-form inverse, and the
constant-kernel control sweeps use exact two-exponential mode profiles
instead of sampled dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workprec

from .errors import NumericalError, PrecisionError
from .grids import TimeGrid
from .moments import InitialData

RESIDUAL_GATE = 1e-20
MAX_PRECISION_BITS = 1024


@dataclass(frozen=True)
class GramSystem:
    """A symmetric positive-definite Gram matrix held in extended precision.

    `exponents` is None for empirical matrices that did not come from an
    exponential family; `horizon` is None for the infinite-horizon case.
    """

    exponents: tuple
    horizon: float
    precision: int
    matrix: object  # mp.matrix

    @property
    def size(self) -> int:
        return self.matrix.rows


def gram(exponents, horizon, precision: int = 256) -> GramSystem:
    """Gram matrix of {e^{-mu2 t}} over (0, T) or (0, infinity).

    Finite-horizon entries are (1 - e^{-(mu_i+mu_j)T})/(mu_i+mu_j); letting
    T grow they increase monotonically to the Cauchy entries 1/(mu_i+mu_j).
    """
    exps = [float(x) for x in exponents]
    if any(x <= 0 for x in exps):
        raise ValueError("exponents must be positive")
    if len(set(exps)) != len(exps):
        raise NumericalError(
            "duplicate exponents make the Gram matrix singular; the family "
            "must consist of distinct rates"
        )
    with workprec(precision):
        G = _gram_matrix(exps, horizon)
    return GramSystem(tuple(exps), horizon, precision, G)


def _gram_matrix(exps, horizon):
    """Entries at the current working precision (callers set workprec)."""
    n = len(exps)
    G = mp.zeros(n, n)
    T = None if horizon is None else mpf(horizon)
    for i in range(n):
        for j in range(i, n):
            s = mpf(exps[i]) + mpf(exps[j])
            if T is None:
                entry = 1 / s
            else:
                entry = (1 - mp.exp(-s * T)) / s
            G[i, j] = entry
            G[j, i] = entry
    return G


def empirical_gram(matrix: np.ndarray, precision: int = 256) -> GramSystem:
    """Wrap a numerically computed symmetric Gram matrix (no exponent family)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    n = matrix.shape[0]
    with workprec(precision):
        G = mp.zeros(n, n)
        for i in range(n):
            for j in range(n):
                G[i, j] = mpf(matrix[i, j])
    return GramSystem(None, None, precision, G)


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
    residual: float  # max defect over the verified rows (the gated quantity)
    precision_used: int
    escalations: tuple  # (bits, residual) for every attempt, last one passing
    diag: tuple  # inverse-diagonal entries kept as mpf for high-precision oracles


def min_norm_biorth(
    gs: GramSystem, gate: float = RESIDUAL_GATE, verify_size: int = None
) -> BiorthReport:
    """Minimal-norm biorthogonal family: norm_n^2 is the inverse Gram diagonal.

    The biorthogonality defect is measured per row as the maximum entry of
    |G G^{-1} - I|; the gate applies to the first `verify_size` rows. If the
    gated residual misses, precision doubles and the solve reruns, failing
    loudly past the ladder's top.
    """
    n = gs.size
    if verify_size is None:
        verify_size = n
    verify_size = min(verify_size, n)
    bits = gs.precision
    attempts = []
    while True:
        with workprec(bits):
            # Exponent-built systems are rebuilt at the escalated precision so
            # the entries themselves sharpen, not just the solve; empirical
            # matrices can only have their solve refined.
            if gs.exponents is not None:
                G = _gram_matrix(list(gs.exponents), gs.horizon)
            else:
                G = gs.matrix.copy()
            try:
                X = G**-1
            except ZeroDivisionError:
                X = None
            if X is None:
                resid = mp.inf
            else:
                E = G * X
                row_resid = [mpf(0)] * n
                for i in range(n):
                    for j in range(n):
                        target = 1 if i == j else 0
                        row_resid[i] = max(row_resid[i], abs(E[i, j] - target))
                resid = max(row_resid[:verify_size])
            attempts.append((bits, float(resid)))
            if resid < gate:
                diag = tuple(X[i, i] for i in range(n))
                log_norms = tuple(float(mp.log(d) / 2) for d in diag)
                norms = tuple(float(mp.sqrt(d)) for d in diag)
                residuals = tuple(float(r) for r in row_resid)
                break
        if bits >= MAX_PRECISION_BITS:
            with workprec(bits):
                cond = (
                    float(mp.mnorm(G, 1) * mp.mnorm(X, 1)) if X is not None else math.inf
                )
            raise PrecisionError(
                f"biorthogonality residual {float(resid):.3e} still above the "
                f"gate {gate:g} at {bits} bits (condition estimate {cond:.3e}); "
                "the family is too ill conditioned for the precision ladder"
            )
        bits = min(bits * 2, MAX_PRECISION_BITS)
    if len(attempts) > 1:
        warnings.warn(
            f"Gram solve escalated precision {attempts[0][0]} -> {bits} bits "
            f"to pass the residual gate ({attempts[-1][1]:.3e} < {gate:g})",
            stacklevel=2,
        )
    return BiorthReport(
        indices=tuple(range(1, n + 1)),
        norms=norms,
        log_norms=log_norms,
        residuals=residuals,
        residual=attempts[-1][1],
        precision_used=bits,
        escalations=tuple(attempts),
        diag=diag,
    )


# ---------------------------------------------------------------------------
# Closed-form Cauchy oracle
# ---------------------------------------------------------------------------


def cauchy_inverse_log_diag(exponents: np.ndarray) -> np.ndarray:
    """log of the inverse diagonal of the Cauchy matrix 1/(x_i + x_j).

    The classical closed form is
        (C^{-1})_{nn} = 2 x_n * prod_{k != n} [(x_k + x_n)/(x_k - x_n)]^2,
    accumulated in log space because the products overflow long before the
    interesting family sizes are reached.
    """
    x = np.asarray(exponents, dtype=float)
    if np.any(x <= 0):
        raise ValueError("exponents must be positive")
    n = len(x)
    sums = np.add.outer(x, x)
    diffs = np.abs(np.subtract.outer(x, x))
    off = ~np.eye(n, dtype=bool)
    if n > 1:
        gap = diffs[off].min()
        if gap < 1e-9 * x.max():
            warnings.warn(
                "near-coincident exponents: the closed-form inverse is "
                "numerically fragile here",
                stacklevel=2,
            )
    log_ratio = np.zeros((n, n))
    log_ratio[off] = np.log(sums[off]) - np.log(diffs[off])
    return np.log(2.0 * x) + 2.0 * log_ratio.sum(axis=1)


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float  # rms of the fit residuals


def fit_log_growth(indices, log_values) -> GrowthFit:
    """Least-squares line through (n, log value)."""
    x = np.asarray(indices, dtype=float)
    y = np.asarray(log_values, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return GrowthFit(float(slope), float(intercept), rms)


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
    rp = (-lam2 + root) / 2
    rm = (-lam2 - root) / 2
    return rp, rm


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


def _cross_integral(r1, r2, T):
    """int_0^T e^{(r1+r2)u} du, with the exact limit at r1 + r2 = 0."""
    s = r1 + r2
    if s == 0:
        return T
    return (mp.exp(s * T) - 1) / s


def _trace_scale(n):
    """Outward-normal trace of eigenfunction n at the right endpoint."""
    return mp.sqrt(2) * n * mp.pi * (-1) ** n


def _control_gram_and_targets(family, horizon, c_value, initial, n_active):
    """Gram matrix of the normalized influence kernels and the target vector.

    Kernel n (time-flipped influence profile at the right endpoint) is
    normalized by its trace factor; scaling an equation and its target
    together leaves the minimal-norm control unchanged, and the smaller
    dynamic range helps the conditioning diagnostics.
    """
    T = mpf(horizon)
    c = mpf(c_value)
    profiles = []
    gammas = []
    for n in range(1, family + 1):
        lam2 = (mpf(n) * mp.pi) ** 2
        profiles.append(_influence_profile(lam2, c))
        gammas.append(_trace_scale(n))
    G = mp.zeros(family, family)
    for i in range(family):
        rp_i, rm_i, A_i, B_i = profiles[i]
        for j in range(i, family):
            rp_j, rm_j, A_j, B_j = profiles[j]
            entry = (
                A_i * A_j * _cross_integral(rp_i, rp_j, T)
                + A_i * B_j * _cross_integral(rp_i, rm_j, T)
                + B_i * A_j * _cross_integral(rm_i, rp_j, T)
                + B_i * B_j * _cross_integral(rm_i, rm_j, T)
            )
            # Complex-root cases recombine to real entries; re() drops the
            # conjugate-cancellation residue.
            entry = mp.re(entry) / (gammas[i] * gammas[j])
            G[i, j] = entry
            G[j, i] = entry
    b = mp.zeros(family, 1)
    for n in range(1, n_active + 1):
        lam2 = (mpf(n) * mp.pi) ** 2
        xi = mpf(initial.value(n))
        b[n - 1, 0] = mp.re(_free_end_value(lam2, c, xi, T)) / gammas[n - 1]
    return G, b


@dataclass(frozen=True)
class ControlSweep:
    """Minimal-norm control magnitudes as the steered mode count grows."""

    family: int
    horizon: float
    memory_constant: float  # 0 means memoryless
    active_counts: tuple
    norms: tuple
    log_norms: tuple
    monotone: bool
    tail_ratio: float  # last norm over the norm six sweep points earlier
    slope: float  # fitted log-norm slope across the sweep
    precision_used: int
    residual: float


def control_norm_sweep(
    family: int,
    active_counts,
    horizon: float,
    memory_constant: float,
    initial: InitialData,
    precision: int = 256,
    gate: float = RESIDUAL_GATE,
) -> ControlSweep:
    """Minimal L2 norm of a right-endpoint control steering the first N modes.

    The whole family of `family` modes is constrained to zero at the horizon;
    initial data sit on the first N modes (N sweeping over active_counts).
    The memoryless case (constant 0) stays bounded as N grows; a genuine
    constant kernel forces the norms up geometrically.
    """
    active_counts = tuple(int(n) for n in active_counts)
    if not active_counts or max(active_counts) > family:
        raise ValueError("active mode counts must be nonempty and within the family")
    bits = precision
    attempts = []
    while True:
        with workprec(bits):
            # A double root of the mode ODE (lam2 = 4c) that coincides at the
            # working precision divides by rp - rm = 0; like a singular solve,
            # it is a residual miss that the next precision step resolves.
            try:
                G, b = _control_gram_and_targets(
                    family, horizon, memory_constant, initial, max(active_counts)
                )
                X = G**-1
            except ZeroDivisionError:
                X = None
            if X is None:
                resid = mp.inf
            else:
                E = G * X
                resid = max(
                    abs(E[i, j] - (1 if i == j else 0))
                    for i in range(family)
                    for j in range(family)
                )
            attempts.append((bits, float(resid)))
            if resid < gate:
                norms = []
                log_norms = []
                for count in active_counts:
                    n2 = mpf(0)
                    for i in range(count):
                        for j in range(count):
                            n2 += b[i, 0] * b[j, 0] * X[i, j]
                    if n2 <= 0:
                        raise NumericalError(
                            "nonpositive squared control norm; the Gram solve "
                            "lost positive definiteness"
                        )
                    norms.append(float(mp.sqrt(n2)))
                    log_norms.append(float(mp.log(n2) / 2))
                break
        if bits >= MAX_PRECISION_BITS:
            raise PrecisionError(
                f"control Gram residual {float(resid):.3e} above gate {gate:g} "
                f"at {bits} bits; the sweep is too ill conditioned"
            )
        bits = min(bits * 2, MAX_PRECISION_BITS)
    diffs = np.diff(log_norms)
    monotone = bool(np.all(diffs >= 0))
    if len(norms) > 6:
        tail_ratio = norms[-1] / norms[-7]
    else:
        tail_ratio = norms[-1] / norms[0]
    if len(active_counts) >= 2:
        slope = fit_log_growth(active_counts, log_norms).slope
    else:
        slope = math.nan  # a single sweep point carries no growth information
    return ControlSweep(
        family=family,
        horizon=float(horizon),
        memory_constant=float(memory_constant),
        active_counts=active_counts,
        norms=tuple(norms),
        log_norms=tuple(log_norms),
        monotone=monotone,
        tail_ratio=float(tail_ratio),
        slope=slope,
        precision_used=bits,
        residual=attempts[-1][1],
    )
