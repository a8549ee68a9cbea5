"""Reachability functionals at the final time and their rescaled asymptotics.

Steering mode n to zero at time T is the scalar constraint

    int_0^T sum_x f(x, T-s) E_n(x, s) ds = mu2_n d_n,

where d_n is the free (uncontrolled) value of the mode at T, and the kernel
factorizes as E_n(x, s) = mu2_n trace_n(x) psi_n(s) with the scalar profile
psi_n = e0 - h_n*e0. This module computes the targets d_n, checks their
asymptotic law (the rescaled free values mu2_n d_n / xi_n converge to minus
the resolvent value at T, at rate 1/mu2_n, so the constraint family is
uniformly nondegenerate exactly when the resolvent does not vanish at T),
finds the first mode from which that holds, and returns the assembled
family directly as its JSON record (`build_moment_problem`). Up to a
two-time kernel independent of n, the profiles psi_n are plain
exponentials; the biorthogonality problem against {mu2_n e^{-mu2_n r}} that
this leaves is measured in `biorth`.

The bracket of d_n per unit initial value depends only on the mode's rate.
`end_brackets` computes it for a stack of rates in one pass: one stacked
solve of their mode resolvents h and one stacked product quadrature for
e0*q (an O(nodes) exponential recursion per rate); each bracket then reads
its rows of those stacks. The scope search asks for one rate at a time,
since it stops at the first mode that passes; `asymptotic_table` computes
the brackets of the whole window in one call and carries them in its
report, and `build_moment_problem` scales those by the initial data.
`free_end_value`, one mode's bracket times its initial value, is kept for
the acceptance gate. Nothing is cached on the triple.
Whether the kernel has memory is read in one place, `check_end_value`,
off the computed resolvent; the kernel families declare nothing about it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import convolve_exp_stack, end_pairing
from .errors import NumericalError, read_list, read_number, read_tagged
from .modes import Mode, dirichlet_modes_1d, first_positive_index
from .resolvents import ResolventTriple, mode_resolvent_stack
# the benchmark's tracer self-test (perfbench/test_checks.py) reads this binding
from .resolvents import mode_resolvent_direct  # noqa: F401

END_VALUE_GUARD = 1e-4  # floor on |resolvent(T)| / sup |resolvent| before we refuse
SCOPE_SEARCH_WIDTH = 64  # modes the scope search tries before it gives up


@dataclass(frozen=True)
class InitialData:
    """Modal initial coefficients, either an explicit list or a named rule."""

    rule: str  # "explicit", "inverse_index", or "zero"
    explicit: tuple = ()

    @classmethod
    def from_values(cls, values) -> "InitialData":
        return cls("explicit", tuple(float(v) for v in values))

    @classmethod
    def inverse_index(cls) -> "InitialData":
        return cls("inverse_index")

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError("mode indices start at 1")
        if self.rule == "explicit":
            if n > len(self.explicit):
                return 0.0
            return self.explicit[n - 1]
        if self.rule == "inverse_index":
            return 1.0 / n
        if self.rule == "zero":
            return 0.0
        raise ValueError(f"unknown initial-data rule {self.rule!r}")

    def values(self, count: int) -> np.ndarray:
        return np.array([self.value(n) for n in range(1, count + 1)])

    def to_config(self) -> dict:
        if self.rule == "explicit":
            return {"rule": "explicit", "values": list(self.explicit)}
        return {"rule": self.rule}


_INITIAL_KEYS = {"explicit": ("values",), "inverse_index": (), "zero": ()}


def initial_data_from_config(record) -> InitialData:
    rule, record = read_tagged(record, "initial", "rule", _INITIAL_KEYS)
    if rule == "explicit":
        return InitialData.from_values(read_list(record, "values", "initial", read_number))
    return InitialData(rule)


# ---------------------------------------------------------------------------
# Free end values and their rescaled asymptotics
# ---------------------------------------------------------------------------


def check_end_value(rt: ResolventTriple) -> float:
    """Return the resolvent's end value, refusing if it is effectively zero.

    The rescaled constraint targets converge to minus this number; when it
    vanishes the whole construction degenerates at this horizon. The
    resolvent of a nonzero analytic kernel is analytic and not identically
    zero, so its zeros are isolated: nearby horizons work. The error message
    says so instead of pretending the method failed globally. The guard is
    relative to the resolvent's own size, which scales with the kernel: a
    weak kernel has a small resolvent everywhere, not a zero at T.

    The only zero end the guard lets through is that of a resolvent that
    vanishes identically, which happens exactly when every kernel sample on
    the grid is 0 (a zero kernel in any spelling, or samples that all
    underflow): a returned 0.0 means memoryless. A resolvent that is not
    zero but lies wholly below the smallest normal double is refused too:
    its values are subnormal, with too few significant bits for any law
    read off them to hold.
    """
    end = rt.end_value()
    sup, tiny = rt.resolvent.sup_norm(), np.finfo(float).tiny
    if 0.0 < sup < tiny:
        raise NumericalError(
            f"the kernel resolvent is subnormal on the whole grid (sup "
            f"{sup:.3e} < {tiny:.3e}); its values have no "
            "significant digits, so no targets can be read from them. Scale "
            "the kernel up or set it to zero."
        )
    if abs(end) < END_VALUE_GUARD * sup:
        raise NumericalError(
            f"the kernel resolvent vanishes at the horizon T = "
            f"{rt.grid.horizon:g} (value {end:.3e}); the rescaled targets "
            "degenerate there. Zeros of the resolvent are isolated, so pick "
            "a slightly different horizon and rerun."
        )
    return end


def end_brackets(rt: ResolventTriple, rates) -> np.ndarray:
    """The bracket of the target d_n per unit initial value, for every rate.

    Evaluated directly from the explicit representation at the final node:
    d = [e^{-mu2 T} - (e0*q)(T) - (h*e0)(T) + (h*(e0*q))(T)] xi. The mode
    resolvents h of all rates are one stacked solve and their e0*q one
    stacked product quadrature, and entry i reads row i of each; it has the
    bits of a call for rates[i] alone.
    """
    grid = rt.grid
    h = mode_resolvent_stack(rt, rates)
    e0q = convolve_exp_stack(rt.resolvent.values, grid, rates)
    out = np.empty(len(rates))
    for i, mu2 in enumerate(rates):
        e_end = float(np.exp(-mu2 * grid.horizon))
        he0_end = convolve_exp_stack(h[i], grid, mu2)[0, -1]
        out[i] = e_end - e0q[i, -1] - he0_end + end_pairing(h[i], e0q[i], grid.dt)
    return out


def free_end_value(mode: Mode, rt: ResolventTriple, xi: float = 1.0) -> float:
    """Value at T of the uncontrolled mode started at xi (the target d_n):
    the mode's row of `end_brackets` times xi."""
    return end_brackets(rt, [mode.shifted_rate])[0] * xi


@dataclass(frozen=True)
class AsymptoticReport:
    """Rescaled free values against the resolvent end-value law."""

    ratios: tuple  # mu2_n d_n / xi_n
    residuals: tuple  # ratios + resolvent(T)
    sup_weighted_residual: float  # sup over n of |residual_n| mu2_n
    regime: str  # "memory" or "memoryless"
    end_value: float
    brackets: tuple  # d_n per unit initial value (`end_brackets`)


def asymptotic_table(modes, rt: ResolventTriple) -> AsymptoticReport:
    """Tabulate mu2_n d_n (per unit initial value) and the law residuals.

    The brackets of all modes are one `end_brackets` call, kept in the
    report. Every mode needs a positive shifted rate. The horizon guard
    applies; where it returns 0.0 the ratios decay to zero and the report
    is flagged memoryless.
    """
    if any(m.shifted_rate <= 0 for m in modes):
        raise NumericalError(
            f"scope start {modes[0].index} admits a nonpositive shifted rate; "
            "raise the start index past the gain crossover"
        )
    end = check_end_value(rt)
    regime = "memory" if end else "memoryless"
    rates = [m.shifted_rate for m in modes]
    brackets = end_brackets(rt, rates)
    ratios, residuals = [], []
    sup_weighted = 0.0
    for mu2, bracket in zip(rates, brackets):
        ratio = mu2 * bracket
        resid = ratio + end
        ratios.append(ratio)
        residuals.append(resid)
        sup_weighted = max(sup_weighted, abs(resid) * mu2)
    return AsymptoticReport(
        tuple(ratios), tuple(residuals), sup_weighted, regime, end, tuple(brackets)
    )


def scope_threshold(rt: ResolventTriple) -> int:
    """Smallest mode index from which the constraint family is nondegenerate.

    The search runs over SCOPE_SEARCH_WIDTH modes from the first positive
    shifted rate and requires a law residual below half the resolvent end
    value, so the rescaled targets stay bounded away from zero for every mode
    in scope. Without memory (an end value of 0.0) the law degenerates and
    the threshold is simply the first positive rate.
    """
    first = first_positive_index(rt.gain)
    end = check_end_value(rt)
    if end == 0.0:
        return first
    modes = dirichlet_modes_1d(SCOPE_SEARCH_WIDTH, rt.gain, first=first)
    for mode in modes:
        d = end_brackets(rt, [mode.shifted_rate])[0]
        resid = mode.shifted_rate * d + end
        if abs(resid) < 0.5 * abs(end):
            return mode.index
    raise NumericalError(
        f"no mode n = {modes[0].index}..{modes[-1].index} satisfies the "
        "nondegeneracy margin; pin \"scope\" in the config to an index past "
        f"{modes[-1].index}, or adjust the horizon"
    )


# ---------------------------------------------------------------------------
# The assembled problem
# ---------------------------------------------------------------------------


def build_moment_problem(
    modes, rt: ResolventTriple, initial: InitialData, brackets
) -> dict:
    """JSON record (stable external schema) of the targets d_n of `modes`.

    `modes` is the scope window: it starts at the `scope_threshold` of a
    search or at an index pinned by hand. `brackets` holds their rows of
    `end_brackets` (the `asymptotic_table` report carries them), each scaled
    here by the mode's initial value.
    """
    return {
        "T": rt.grid.horizon,
        "modes": [
            {
                "n": mode.index,
                "mu2": mode.shifted_rate,
                "d_n": bracket * initial.value(mode.index),
                "trace_factors": [mode.trace_left, mode.trace_right],
            }
            for mode, bracket in zip(modes, brackets)
        ],
        "grid": {"horizon": rt.grid.horizon, "steps": rt.grid.steps},
    }
