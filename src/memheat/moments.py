"""Reachability functionals at the final time and their rescaled asymptotics.

Steering mode n to zero at time T is the scalar constraint

    int_0^T sum_x f(x, T-s) E_n(x, s) ds = mu2_n d_n,

where d_n is the free (uncontrolled) value of the mode at T, and the kernel
factorizes as E_n(x, s) = mu2_n trace_n(x) psi_n(s) with the scalar profile
psi_n = e0 - h_n*e0. This module computes the targets d_n, checks their
asymptotic law (the rescaled free values mu2_n d_n / xi_n converge to minus
the resolvent value at T, at rate 1/mu2_n, so the constraint family is
uniformly nondegenerate exactly when the resolvent does not vanish at T),
finds the first mode from which that holds, and records the assembled
family. Up to a two-time kernel independent of n, the profiles psi_n are
plain exponentials; the biorthogonality problem against {mu2_n e^{-mu2_n r}}
that this leaves is measured in `biorth`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import convolve_exp, end_pairing
from .errors import ConfigError, NumericalError
from .grids import SampledFunction
from .modes import Mode
from .resolvents import ResolventTriple, mode_resolvent_direct

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

    @classmethod
    def zero(cls) -> "InitialData":
        return cls("zero")

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


def initial_data_from_config(record, path: str = "initial") -> InitialData:
    if not isinstance(record, dict):
        raise ConfigError(path, f"expected a record, got {type(record).__name__}")
    rule = record.get("rule")
    if rule == "explicit":
        unknown = sorted(set(record) - {"rule", "values"})
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
        values = record.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.values", "expected a nonempty list of numbers")
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
                raise ConfigError(f"{path}.values[{i}]", f"expected a finite number, got {v!r}")
        return InitialData.from_values(values)
    if rule in ("inverse_index", "zero"):
        unknown = sorted(set(record) - {"rule"})
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
        return InitialData(rule)
    raise ConfigError(
        f"{path}.rule",
        f"unknown initial-data rule {rule!r}; expected explicit, inverse_index, or zero",
    )


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


def free_end_value(
    mode: Mode, rt: ResolventTriple, h: SampledFunction = None, xi: float = 1.0
) -> float:
    """Value at T of the uncontrolled mode started at xi (the target d_n).

    Evaluated directly from the explicit representation at the final node:
    d = [e^{-mu2 T} - (e0*q)(T) - (h*e0)(T) + (h*(e0*q))(T)] xi.
    """
    if h is None:
        h = mode_resolvent_direct(rt, mode.shifted_rate)
    grid = rt.grid
    mu2 = mode.shifted_rate
    q = convolve_exp(rt.resolvent, mu2)
    e_end = float(np.exp(-mu2 * grid.horizon))
    he0_end = float(convolve_exp(h, mu2).values[-1])
    hq_end = end_pairing(h, q)
    return (e_end - q.values[-1] - he0_end + hq_end) * xi


@dataclass(frozen=True)
class AsymptoticReport:
    """Rescaled free values against the resolvent end-value law."""

    indices: tuple
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
    indices, ratios, residuals = [], [], []
    sup_weighted = 0.0
    for mode in modes:
        if mode.shifted_rate <= 0:
            raise ValueError(
                "asymptotic table needs modes with positive shifted rates"
            )
        d = free_end_value(mode, rt)
        ratio = mode.shifted_rate * d
        resid = ratio + end
        indices.append(mode.index)
        ratios.append(ratio)
        residuals.append(resid)
        sup_weighted = max(sup_weighted, abs(resid) * mode.shifted_rate)
    return AsymptoticReport(
        tuple(indices), tuple(ratios), tuple(residuals), sup_weighted, regime, end
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
        "no mode in the given range satisfies the nondegeneracy margin; "
        "extend the mode range or adjust the horizon"
    )


# ---------------------------------------------------------------------------
# The assembled problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentProblem:
    """Scope modes with their free end values."""

    horizon: float
    modes: tuple
    targets: tuple  # free end values d_n for the configured initial data

    def __post_init__(self):
        if len(self.modes) != len(self.targets):
            raise ValueError("modes and targets must align")
        for mode in self.modes:
            if mode.shifted_rate <= 0:
                raise ValueError("every mode in a moment problem needs a positive rate")

    def rescaled_targets(self) -> np.ndarray:
        return np.array(
            [m.shifted_rate * d for m, d in zip(self.modes, self.targets)]
        )


def build_moment_problem(
    modes, rt: ResolventTriple, initial: InitialData, start: int | None = None
) -> MomentProblem:
    """Assemble the targets for every mode from the scope threshold on.

    Pass ``start`` to pin the scope by hand instead of searching for it.
    """
    if start is None:
        start = scope_threshold(modes, rt)
    scope = [m for m in modes if m.index >= start]
    if not scope:
        raise NumericalError(f"no modes at or beyond index {start}")
    if any(m.shifted_rate <= 0 for m in scope):
        raise NumericalError(
            f"scope start {start} admits a nonpositive shifted rate; "
            "raise the start index past the gain crossover"
        )
    targets = []
    for mode in scope:
        h = mode_resolvent_direct(rt, mode.shifted_rate)
        targets.append(free_end_value(mode, rt, h, xi=initial.value(mode.index)))
    return MomentProblem(rt.grid.horizon, tuple(scope), tuple(targets))


def moment_problem_record(problem: MomentProblem, grid) -> dict:
    """JSON-ready dump of the assembled problem (stable external schema)."""
    return {
        "T": problem.horizon,
        "modes": [
            {
                "n": mode.index,
                "mu2": mode.shifted_rate,
                "d_n": target,
                "trace_factors": [mode.trace_left, mode.trace_right],
            }
            for mode, target in zip(problem.modes, problem.targets)
        ],
        "grid": {"horizon": grid.horizon, "steps": grid.steps},
    }
