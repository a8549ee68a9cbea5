"""Largest numeric differences between two memheat output trees.

    python3 tools/compare_outputs.py OLD NEW

For every CSV and JSON file under OLD or NEW (matched by relative path),
prints one line: the path, the largest absolute and the largest relative
difference of its numeric fields, and how many fields differ. A CSV file is
compared cell by cell, a JSON file leaf by leaf; a field that is not a
number (a header, a string, a null, a bool) counts as differing when its
text differs, and adds nothing to the largest differences. The relative
difference of a and b is |a - b| / max(|a|, |b|); two NaNs, or two equal
infinities, do not differ. A file present on one side only, or whose rows,
columns or keys do not line up, is reported as such. Exits 0 when every
file is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

SUFFIXES = (".csv", ".json")


def _fields(path: Path) -> dict:
    """Field position -> raw value: (row, column) of a CSV, key path of a JSON."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}
    out = {}

    def walk(node, key):
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, key + (name,))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, key + (i,))
        else:
            out[key] = node

    walk(json.loads(path.read_text()), ())
    return out


def _number(value):
    """The value as a float, or None if it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def difference(a, b) -> tuple:
    """(absolute, relative) difference of two numbers; (0, 0) when equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf, math.inf
    gap = abs(a - b)
    return gap, gap / max(abs(a), abs(b))


def compare_files(old: Path, new: Path) -> dict:
    """Largest differences and the count of differing fields of two files."""
    report = {"max_abs": 0.0, "max_rel": 0.0, "differing": 0, "identical": False}
    if old.read_bytes() == new.read_bytes():
        report["identical"] = True
        return report
    a, b = _fields(old), _fields(new)
    if a.keys() != b.keys():
        report["mismatch"] = f"{len(a)} fields vs {len(b)}, not in the same places"
        return report
    for key, x in a.items():
        y = b[key]
        nx, ny = _number(x), _number(y)
        if nx is None or ny is None:
            report["differing"] += x != y
            continue
        gap, rel = difference(nx, ny)
        report["differing"] += gap > 0 or str(x) != str(y)
        report["max_abs"] = max(report["max_abs"], gap)
        report["max_rel"] = max(report["max_rel"], rel)
    return report


def compare_trees(old: Path, new: Path) -> dict:
    """Relative path -> report (or the side it is missing from) per file."""
    files = {
        p.relative_to(root)
        for root in (old, new)
        for p in root.rglob("*")
        if p.suffix in SUFFIXES and p.is_file()
    }
    out = {}
    for rel in sorted(files):
        if not (old / rel).is_file():
            out[str(rel)] = {"only_in": "new"}
        elif not (new / rel).is_file():
            out[str(rel)] = {"only_in": "old"}
        else:
            out[str(rel)] = compare_files(old / rel, new / rel)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    reports = compare_trees(args.old, args.new)
    for rel, r in reports.items():
        if "only_in" in r:
            print(f"{rel}  only in {r['only_in'].upper()}")
        elif r["identical"]:
            print(f"{rel}  identical")
        elif "mismatch" in r:
            print(f"{rel}  shapes differ: {r['mismatch']}")
        else:
            print(
                f"{rel}  max_abs {r['max_abs']:.3g}  max_rel {r['max_rel']:.3g}  "
                f"({r['differing']} fields differ)"
            )
    return 0 if all(r.get("identical") for r in reports.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
