"""Exception hierarchy shared across the package."""


class MemheatError(Exception):
    """Base class for every error raised by this package."""


class GridMismatchError(MemheatError):
    """Operands sampled on incompatible time grids were combined."""


class ConfigError(MemheatError):
    """Invalid experiment configuration.

    Carries the key path of the offending entry so command-line users can
    locate the problem in their config file directly.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def reject_unknown_keys(record: dict, allowed: set, path: str) -> None:
    """Raise ConfigError at `path.key` for the first key outside `allowed`."""
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")


class NumericalError(MemheatError):
    """A computation failed; a finer grid, a different horizon, or more
    precision may fix it. The message says which."""


class PrecisionError(NumericalError):
    """An extended-precision solve missed its residual gate at every
    precision up to the configured maximum."""
