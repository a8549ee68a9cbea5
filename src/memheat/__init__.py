"""Boundary control of heat flow with memory: solvers, moment problems, and
minimal-norm biorthogonal diagnostics on the unit interval.

The package namespace holds the shared vocabulary (errors, grids, kernels);
everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridMismatchError,
    MemheatError,
    NumericalError,
    PrecisionError,
)
from .grids import SampledFunction, TimeGrid, require_same_grid
from .kernels import (
    ConstantKernel,
    ExpSumKernel,
    MemoryKernel,
    PolynomialKernel,
    ZeroKernel,
    kernel_from_config,
)
