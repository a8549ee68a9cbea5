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

The per-mode functions build what they need from each mode and the
resolvent triple. The one piece of per-mode work they share, the end-value
bracket of d_n, is cached as a single float per rate on the triple
(`free_end_value`). The scope search fills it one mode at a time, since it
stops at the first mode that passes; `build_moment_problem` fills it for the
rest of the window with one stacked solve of their mode resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import convolve_exp_monomial, end_pairing
from .errors import NumericalError, read_list, read_number, read_tagged
from .grids import SampledFunction
from .modes import Mode
from .resolvents import ResolventTriple, mode_resolvent_direct, mode_resolvent_stack

END_VALUE_GUARD = 1e-4  # relative floor on |resolvent(T)| before we refuse


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


def initial_data_from_config(record, path: str = "initial") -> InitialData:
    rule, record = read_tagged(record, path, "rule", _INITIAL_KEYS)
    if rule == "explicit":
        return InitialData.from_values(read_list(record, "values", path, read_number))
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
    says so instead of pretending the method failed globally.
    """
    end = rt.end_value()
    if rt.kernel.is_zero:
        return end
    scale = max(1.0, rt.resolvent.sup_norm())
    if abs(end) < END_VALUE_GUARD * scale:
        raise NumericalError(
            f"the kernel resolvent vanishes at the horizon T = "
            f"{rt.grid.horizon:g} (value {end:.3e}); the rescaled targets "
            "degenerate there. Zeros of the resolvent are isolated, so pick "
            "a slightly different horizon and rerun."
        )
    return end


def free_end_value(mode: Mode, rt: ResolventTriple, xi: float = 1.0) -> float:
    """Value at T of the uncontrolled mode started at xi (the target d_n).

    Evaluated directly from the explicit representation at the final node:
    d = [e^{-mu2 T} - (e0*q)(T) - (h*e0)(T) + (h*(e0*q))(T)] xi. The bracket
    depends only on the rate, so it is computed once per rate and kept on
    the triple; the scope search, the targets and the asymptotic table all
    read it. Only that scalar is kept, never h or e0*q.
    """
    mu2 = mode.shifted_rate
    brackets = _end_brackets(rt)
    if mu2 not in brackets:
        brackets[mu2] = _end_bracket(rt, mu2, mode_resolvent_direct(rt, mu2))
    return brackets[mu2] * xi


def _end_brackets(rt: ResolventTriple) -> dict:
    """The bracket of d_n per rate, cached on the triple."""
    return rt.__dict__.setdefault("_end_brackets", {})


def _end_bracket(rt: ResolventTriple, mu2: float, h: SampledFunction) -> float:
    q = convolve_exp_monomial(rt.resolvent, mu2)
    e_end = float(np.exp(-mu2 * rt.grid.horizon))
    he0_end = float(convolve_exp_monomial(h, mu2).values[-1])
    return e_end - q.values[-1] - he0_end + end_pairing(h, q)


def _cache_end_brackets(modes, rt: ResolventTriple) -> None:
    """Fill the bracket cache for every rate of `modes` it lacks, with one
    stacked solve of their mode resolvents (the rates of a scope window)."""
    brackets = _end_brackets(rt)
    rates = [m.shifted_rate for m in modes if m.shifted_rate not in brackets]
    for mu2, h in zip(rates, mode_resolvent_stack(rt, rates)):
        brackets[mu2] = _end_bracket(rt, mu2, SampledFunction(rt.grid, h))


@dataclass(frozen=True)
class AsymptoticReport:
    """Rescaled free values against the resolvent end-value law."""

    ratios: tuple  # mu2_n d_n / xi_n
    residuals: tuple  # ratios + resolvent(T)
    sup_weighted_residual: float  # sup over n of |residual_n| mu2_n
    regime: str  # "memory" or "memoryless"
    end_value: float


def asymptotic_table(modes, rt: ResolventTriple) -> AsymptoticReport:
    """Tabulate mu2_n d_n (per unit initial value) and the law residuals.

    For a zero kernel the ratios decay to zero and the report is flagged
    memoryless; for a genuine kernel the horizon guard applies.
    """
    if rt.kernel.is_zero:
        end = 0.0
        regime = "memoryless"
    else:
        end = check_end_value(rt)
        regime = "memory"
    ratios, residuals = [], []
    sup_weighted = 0.0
    for mode in modes:
        if mode.shifted_rate <= 0:
            raise ValueError(
                "asymptotic table needs modes with positive shifted rates"
            )
        d = free_end_value(mode, rt)
        ratio = mode.shifted_rate * d
        resid = ratio + end
        ratios.append(ratio)
        residuals.append(resid)
        sup_weighted = max(sup_weighted, abs(resid) * mode.shifted_rate)
    return AsymptoticReport(
        tuple(ratios), tuple(residuals), sup_weighted, regime, end
    )


def scope_threshold(modes, rt: ResolventTriple) -> int:
    """Smallest mode index from which the constraint family is nondegenerate.

    Requires a positive shifted rate and a law residual below half the
    resolvent end value, so the rescaled targets stay bounded away from zero
    for every mode in scope. Without memory the law degenerates (the limit
    is zero) and the threshold is simply the first positive rate.
    """
    if rt.kernel.is_zero:
        for mode in modes:
            if mode.shifted_rate > 0:
                return mode.index
        raise NumericalError("no mode with a positive rate in the given range")
    end = check_end_value(rt)
    for mode in modes:
        if mode.shifted_rate <= 0:
            continue
        d = free_end_value(mode, rt)
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


def build_moment_problem(modes, rt: ResolventTriple, initial: InitialData) -> dict:
    """JSON record (stable external schema) of the targets d_n of `modes`.

    `modes` is the scope window: it starts at the `scope_threshold` of a
    search or at an index pinned by hand.
    """
    if any(m.shifted_rate <= 0 for m in modes):
        raise NumericalError(
            f"scope start {modes[0].index} admits a nonpositive shifted rate; "
            "raise the start index past the gain crossover"
        )
    _cache_end_brackets(modes, rt)
    return {
        "T": rt.grid.horizon,
        "modes": [
            {
                "n": mode.index,
                "mu2": mode.shifted_rate,
                "d_n": free_end_value(mode, rt, xi=initial.value(mode.index)),
                "trace_factors": [mode.trace_left, mode.trace_right],
            }
            for mode in modes
        ],
        "grid": {"horizon": rt.grid.horizon, "steps": rt.grid.steps},
    }
