"""Golden output hashes of the shipped configs.

Every config under `configs/` runs through `memheat.cli.main` twice: with the
command its file name starts with, and as `simulate --refine`. Each output
file is recorded by its SHA-256 and by a four-hex-digit digest per line, so
that a mismatch can be traced to its first differing line.

    PYTHONPATH=src python tests/golden.py          # compare, exit 1 on a mismatch
    PYTHONPATH=src python tests/golden.py --write  # rewrite tests/golden.json

Rewriting the golden file records an output change: list every file that
changed and the reason in CHANGES.md.

The bytes depend on numpy's own SIMD dispatch, which picks its kernels by
the CPU: on an AVX-512 host, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
X86_V4" changes 37 of the 62 files, and adding X86_V3 changes 40. So a
mismatch report ends with the SIMD extensions numpy found.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from memheat.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def runs():
    """(name, argv without --out) for every golden run."""
    out = []
    for config in sorted(CONFIGS.glob("*.json")):
        command = config.stem.partition("_")[0]
        out.append((f"{config.stem}/simulate", ["simulate", "--config", str(config), "--refine"]))
        if command != "simulate":
            out.append((f"{config.stem}/{command}", [command, "--config", str(config)]))
    return out


def _line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:4]


def record(out_root: Path) -> dict:
    """Run every golden run under out_root; 'run/file' -> its hashes."""
    hashes = {}
    for name, argv in runs():
        out = Path(out_root) / name
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{name}: exit code {code}")
        for path in sorted(out.iterdir()):
            text = path.read_text()
            hashes[f"{name}/{path.name}"] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "lines": "".join(_line_digest(x) for x in text.splitlines()),
            }
    return hashes


def mismatches(golden: dict, actual: dict, out_root: Path) -> list:
    """One message per file that is missing, extra or changed."""
    problems = [f"{f}: missing" for f in sorted(set(golden) - set(actual))]
    problems += [f"{f}: not in the golden file" for f in sorted(set(actual) - set(golden))]
    for f in sorted(set(golden) & set(actual)):
        if golden[f]["sha256"] == actual[f]["sha256"]:
            continue
        lines = (Path(out_root) / f).read_text().splitlines()
        want, got = golden[f]["lines"], actual[f]["lines"]
        first = next(
            (i for i in range(0, min(len(want), len(got)), 4) if want[i : i + 4] != got[i : i + 4]),
            min(len(want), len(got)),
        ) // 4
        if first < len(lines):
            problems.append(f"{f}: first differing line {first + 1}: {lines[first]!r}")
        elif len(want) > len(got):
            problems.append(f"{f}: ends early, after line {len(lines)}")
        else:
            problems.append(f"{f}: differs, but every line digest matches")
    return problems


def simd_extensions() -> str:
    """The SIMD extensions numpy's dispatch found on this CPU, as
    `numpy.show_runtime()` reports them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    return (
        f"numpy {np.__version__} SIMD extensions: baseline {' '.join(umath.__cpu_baseline__)}; "
        f"found {' '.join(found) or 'none'}"
    )


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/golden.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        actual = record(Path(tmp))
        if args.write:
            GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(actual)} file hashes to {GOLDEN}")
            return 0
        problems = mismatches(json.loads(GOLDEN.read_text()), actual, Path(tmp))
    for line in problems:
        print(line)
    if problems:
        print(simd_extensions())
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(cli())
