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

from .errors import ConfigError, reject_unknown_keys
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

    def to_config(self) -> dict:
        return {"type": "polynomial", "coeffs": list(self.coeffs)}


def kernel_from_config(record: dict, path: str = "kernel") -> MemoryKernel:
    """Build a kernel from its tagged config record.

    Raises ConfigError with the offending key path on any malformed input.
    """
    if not isinstance(record, dict):
        raise ConfigError(path, f"expected a tagged record, got {type(record).__name__}")
    tag = record.get("type")
    if tag == "zero":
        reject_unknown_keys(record, {"type"}, path)
        return ZeroKernel()
    if tag == "constant":
        reject_unknown_keys(record, {"type", "value"}, path)
        value = _require_number(record, "value", path)
        return ConstantKernel(value)
    if tag == "exp_sum":
        reject_unknown_keys(record, {"type", "terms"}, path)
        terms = record.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{path}.terms", "expected a nonempty list of {c, b} records")
        pairs = []
        for i, term in enumerate(terms):
            tpath = f"{path}.terms[{i}]"
            if not isinstance(term, dict):
                raise ConfigError(tpath, "expected a {c, b} record")
            reject_unknown_keys(term, {"c", "b"}, tpath)
            c = _require_number(term, "c", tpath)
            b = _require_number(term, "b", tpath)
            if b < 0:
                raise ConfigError(f"{tpath}.b", "decay rate must be nonnegative")
            pairs.append((c, b))
        return ExpSumKernel(tuple(pairs))
    if tag == "polynomial":
        reject_unknown_keys(record, {"type", "coeffs"}, path)
        coeffs = record.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{path}.coeffs", "expected a nonempty list of numbers")
        for i, c in enumerate(coeffs):
            if not isinstance(c, (int, float)) or isinstance(c, bool) or not np.isfinite(c):
                raise ConfigError(f"{path}.coeffs[{i}]", f"expected a finite number, got {c!r}")
        return PolynomialKernel(tuple(float(c) for c in coeffs))
    raise ConfigError(
        f"{path}.type",
        f"unknown kernel type {tag!r}; expected one of zero, constant, exp_sum, polynomial",
    )


def _require_number(record: dict, key: str, path: str) -> float:
    v = record.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)
