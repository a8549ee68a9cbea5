"""Deterministic, atomic file output.

Data files must be byte-identical across reruns of the same config: floats
are printed with 17 significant digits (enough to round-trip IEEE doubles),
JSON keys are sorted, and nothing embeds a timestamp. Files are written to a
temporary sibling and renamed into place so readers never observe a partial
file and interrupted runs leave no corrupt artifacts.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def fmt17(x) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header, rows) -> None:
    """Write rows of numbers (or strings) under a header, atomically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt17(v) for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """Sorted-key JSON dump, atomically written."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(Path(path), text + "\n")
