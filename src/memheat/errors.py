"""Exception hierarchy shared across the package, and the config readers.

The readers below are the one place that decides what valid config input is,
one reader per JSON shape: a record with known keys, a tagged record, a
nonempty list, a finite double and an integer in range. Everything else is
rejected with a ConfigError that names the key path of the offending value.
The scalar and list readers read `record[key]`, where `record` is a dict or
a list indexed by position; given a default, they return it for a key the
dict lacks.
"""

import math


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


class NumericalError(MemheatError):
    """A computation failed; a finer grid, a different horizon, or more
    precision may fix it. The message says which."""


class PrecisionError(NumericalError):
    """An extended-precision solve missed its residual gate at every
    precision up to the configured maximum."""


_REQUIRED = object()  # the default of a key that must be present


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _entry(record, key, path: str):
    """`record[key]` (None for a key the dict lacks) and its key path."""
    value = record[key] if isinstance(key, int) else record.get(key)
    return value, _join(path, key)


def read_record(value, path: str, allowed) -> dict:
    """`value` as a dict whose keys all lie in `allowed`; "" is the root."""
    if not isinstance(value, dict):
        raise ConfigError(path or "<root>", f"expected a record, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(_join(path, unknown[0]), "unknown key")
    return value


def read_tagged(value, path: str, tag: str, keys_by_tag: dict):
    """(tag value, record) of a record whose `tag` entry names its other keys."""
    record = read_record(value, path, {tag}.union(*keys_by_tag.values()))
    name = record.get(tag)
    if not isinstance(name, str) or name not in keys_by_tag:
        raise ConfigError(
            _join(path, tag), f"unknown {tag} {name!r}; expected one of {', '.join(keys_by_tag)}"
        )
    return name, read_record(record, path, {tag, *keys_by_tag[name]})


def read_list(record, key, path: str, read_item, default=_REQUIRED) -> list:
    """`record[key]` as a nonempty list, each item read by `read_item`."""
    if default is not _REQUIRED and key not in record:
        return default
    items, where = _entry(record, key, path)
    if not isinstance(items, list) or not items:
        raise ConfigError(where, f"expected a nonempty list, got {items!r}")
    return [read_item(items, i, where) for i in range(len(items))]


def read_number(record, key, path: str, positive=False, default=_REQUIRED) -> float:
    """`record[key]` as a finite double (an integer too large for one is not)."""
    if default is not _REQUIRED and key not in record:
        return default
    v, where = _entry(record, key, path)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(where, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(where, "must be finite and fit a double")
    if positive and v <= 0:
        raise ConfigError(where, f"must be positive, got {v}")
    return v


def read_int(record, key, path: str, minimum=None, maximum=None, default=_REQUIRED) -> int:
    """`record[key]` as an integer within [minimum, maximum]."""
    if default is not _REQUIRED and key not in record:
        return default
    v, where = _entry(record, key, path)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(where, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(where, f"must be at least {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(where, f"must be at most {maximum}, got {v}")
    return v
