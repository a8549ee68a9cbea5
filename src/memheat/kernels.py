"""Analytic memory-kernel families.

Four families cover the experiments: zero, constant, sums of decaying
exponentials, and polynomials. All are smooth, have analytic derivatives
(required by the solver contracts), and two of them come with closed-form
resolvents used as oracles in the tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, read_list, read_number, read_record, read_tagged
from .grids import SampledFunction, TimeGrid


class MemoryKernel(ABC):
    """A smooth relaxation kernel weighting the history of the system."""

    @abstractmethod
    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the kernel at times t."""

    @abstractmethod
    def derivative(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the first derivative at times t."""

    @abstractmethod
    def to_config(self) -> dict:
        """Tagged record for config echo and round-trips."""

    @property
    def value_at_zero(self) -> float:
        return float(self(np.zeros(1))[0])

    @property
    def is_zero(self) -> bool:
        """True when the kernel vanishes identically: no memory at all."""
        return False

    def sample(self, grid: TimeGrid) -> SampledFunction:
        return SampledFunction(grid, self(grid.nodes))

    def sample_derivative(self, grid: TimeGrid) -> SampledFunction:
        return SampledFunction(grid, self.derivative(grid.nodes))

    def closed_form_resolvent(self, t: np.ndarray):
        """Exact resolvent samples when the family admits one, else None.

        The resolvent q of a kernel m solves q = m - m*q (star denoting
        convolution); only simple families invert in closed form.
        """
        return None


@dataclass(frozen=True)
class ZeroKernel(MemoryKernel):
    """No memory at all; the dynamics degenerate to the plain heat flow."""

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    @property
    def is_zero(self) -> bool:
        return True

    def closed_form_resolvent(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def to_config(self) -> dict:
        return {"type": "zero"}


@dataclass(frozen=True)
class ConstantKernel(MemoryKernel):
    """m(t) = c. Resolvent: c e^{-c t}."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("constant kernel value must be finite")

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), float(self.value))

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def closed_form_resolvent(self, t):
        c = float(self.value)
        return c * np.exp(-c * np.asarray(t, dtype=float))

    def to_config(self) -> dict:
        return {"type": "constant", "value": float(self.value)}


@dataclass(frozen=True)
class ExpSumKernel(MemoryKernel):
    """m(t) = sum_i c_i e^{-b_i t}.

    A single term has the closed-form resolvent c e^{-(b+c) t}; longer sums
    are handled numerically only.
    """

    terms: tuple  # of (c, b) pairs

    def __post_init__(self):
        terms = tuple((float(c), float(b)) for c, b in self.terms)
        if not terms:
            raise ValueError("exp_sum kernel needs at least one term")
        for c, b in terms:
            if not (np.isfinite(c) and np.isfinite(b)):
                raise ValueError("exp_sum term parameters must be finite")
            if b < 0:
                raise ValueError("exp_sum decay rates must be nonnegative")
        object.__setattr__(self, "terms", terms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, b in self.terms:
            out += c * np.exp(-b * t)
        return out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, b in self.terms:
            out += -b * c * np.exp(-b * t)
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c, _ in self.terms)

    def closed_form_resolvent(self, t):
        if len(self.terms) != 1:
            return None
        c, b = self.terms[0]
        return c * np.exp(-(b + c) * np.asarray(t, dtype=float))

    def to_config(self) -> dict:
        return {"type": "exp_sum", "terms": [{"c": c, "b": b} for c, b in self.terms]}


@dataclass(frozen=True)
class PolynomialKernel(MemoryKernel):
    """m(t) = sum_k coeffs[k] t^k (coefficients in increasing degree)."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial kernel needs at least one coefficient")
        if not all(np.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.polynomial.polynomial.polyval(t, self.coeffs)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        dcoef = [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]
        return np.polynomial.polynomial.polyval(t, dcoef)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_config(self) -> dict:
        return {"type": "polynomial", "coeffs": list(self.coeffs)}


_KERNEL_KEYS = {
    "zero": (),
    "constant": ("value",),
    "exp_sum": ("terms",),
    "polynomial": ("coeffs",),
}


def kernel_from_config(record, path: str = "kernel") -> MemoryKernel:
    """Build a kernel from its tagged config record.

    Raises ConfigError with the offending key path on any malformed input.
    """
    tag, record = read_tagged(record, path, "type", _KERNEL_KEYS)
    if tag == "zero":
        return ZeroKernel()
    if tag == "constant":
        return ConstantKernel(read_number(record, "value", path))
    if tag == "exp_sum":
        return ExpSumKernel(tuple(read_list(record, "terms", path, _read_term)))
    return PolynomialKernel(tuple(read_list(record, "coeffs", path, read_number)))


def _read_term(terms: list, i: int, path: str) -> tuple:
    """The (c, b) pair of one exp_sum term record."""
    tpath = f"{path}[{i}]"
    term = read_record(terms[i], tpath, {"c", "b"})
    c = read_number(term, "c", tpath)
    b = read_number(term, "b", tpath)
    if b < 0:
        raise ConfigError(f"{tpath}.b", "decay rate must be nonnegative")
    return c, b
