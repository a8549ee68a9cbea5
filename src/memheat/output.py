"""Deterministic, atomic file output, and the one write phase of a run.

Data files must be byte-identical across reruns of the same config: floats
are printed with 17 significant digits (enough to round-trip IEEE doubles),
JSON keys are sorted, and nothing embeds a timestamp. Files are written to a
temporary sibling and renamed into place so readers never observe a partial
file and interrupted runs leave no corrupt artifacts. `write_outputs` is the
only place a run's files are written: the commands compute them, the CLI
hands them over here.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from .errors import ConfigError


def fmt17(x) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _atomic_write(path: Path, text: str) -> None:
    # Created like open(path, "w") would create it, so the file gets mode
    # 0o666 less the umask; O_EXCL never reuses a sibling that already exists.
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    """Write rows of numbers under a header, atomically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt17(v) for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """Sorted-key JSON dump, atomically written."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(Path(path), text + "\n")


def write_outputs(out_dir, files: dict) -> None:
    """Create out_dir and write each file in order, by its suffix: a `.csv`
    payload is `(header, rows)`, a `.json` payload is the record. A directory
    or file that cannot be written is a `--out` error, and undoes this call."""
    out_dir = Path(out_dir)
    created = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, say
        raise ConfigError("--out", f"cannot create the output directory: {exc}") from exc
    for k, (name, payload) in enumerate(files.items()):
        try:
            if name.endswith(".csv"):
                write_csv(out_dir / name, *payload)
            else:
                write_json(out_dir / name, payload)
        except OSError as exc:  # a directory at the file's name, say
            with contextlib.suppress(OSError):
                for done in list(files)[:k]:
                    (out_dir / done).unlink()
                if created:
                    out_dir.rmdir()
            raise ConfigError("--out", f"cannot write {name}: {exc}") from exc
