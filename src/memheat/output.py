"""Deterministic, atomic file output, and the one write phase of a run.

Data files must be byte-identical across reruns of the same config: floats
are printed with 17 significant digits (enough to round-trip IEEE doubles),
JSON keys are sorted, and nothing embeds a timestamp. A CSV table is a 2-D
float array, or a list of row tuples for a small one, and is formatted a
block of rows per `%` operation, not one Python call per number. Files are
written to a temporary sibling and renamed into place so readers never
observe a partial file and interrupted runs leave no corrupt artifacts.
`write_outputs` is the only place a run's files are written: the commands
compute them, the CLI hands them over here.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError


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


# Rows per `%` operation in `write_csv`: a block of a table is formatted by
# one line template repeated this many times, so the per-call cost is paid
# once per block and the text of one block at a time is held as Python floats.
CSV_BLOCK = 256


def write_csv(path, header, rows) -> None:
    """Write a table of numbers under a header, atomically.

    rows is a 2-D float array, or for a small table a list of row tuples in
    which each column holds one kind of number, as its first row shows.
    Every float prints as %.17g, which is format(float(x), ".17g") for any
    double, nan, inf and -0.0 included. A column of Python ints prints as
    %d, all its digits: a mode index at a large `scope` passes 2^53, where a
    double no longer holds every integer.
    """
    parts = [",".join(header) + "\n"]
    array = isinstance(rows, np.ndarray)
    if len(rows):
        if array:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        else:
            line = ",".join("%d" if isinstance(v, int) else "%.17g" for v in rows[0]) + "\n"
        for lo in range(0, len(rows), CSV_BLOCK):
            block = rows[lo : lo + CSV_BLOCK]
            values = block.ravel().tolist() if array else [v for row in block for v in row]
            parts.append((line * len(block)) % tuple(values))
    _atomic_write(Path(path), "".join(parts))


def write_json(path, payload) -> None:
    """Sorted-key JSON dump, atomically written."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(Path(path), text + "\n")


def write_outputs(out_dir, files: dict) -> None:
    """Create out_dir and write each file in order, by its suffix: a `.csv`
    payload is `(header, rows)` as `write_csv` takes them, a `.json` payload
    is the record. A directory or file that cannot be written is a `--out`
    error, and undoes this call."""
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
