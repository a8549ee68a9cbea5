"""Benchmark this checkout against a base commit; write BENCH_<base>.json.

    python3 tools/bench_pairs.py --base REV --pairs 10 --first-seed 101 \
        --seconds 40 [--work DIR]

Both sides run from fresh exports in one scratch directory (``--work``, a
fresh temporary directory by default), made the same way: ``git archive`` of
a tree unpacked by ``tar``. The base side is the tree of the base commit; the
change side is this checkout's working tree written as a tree object through
a temporary index (its tracked and untracked files with their edits and
deletions, not the ignored ones), so that neither side starts with caches,
leftovers or file times the other lacks. The exports are ``tree_a`` (base) and
``tree_b`` (change), names of one length that do not encode the role, so
their paths differ in one letter only. For each seed and each workload
that ``BENCHMARK.json`` declares, both sides run ``perfbench/run.py --trace
0`` back to back, the base first on even pairs and the change first on odd
ones, so a drift in the host's speed falls on both sides alike. Every run's result JSON (the last line perfbench
prints) is kept as it is, and the record also gives, per workload and
metric, both medians, both interquartile ranges (q3 - q1, the spread a gain
must exceed) and the number of pairs in which the change was better, and
per workload and side the totals of the runs' ``failed`` and ``attempted``
operations, from which the share of failed operations follows. The
record goes to ``BENCH_<short base sha>.json`` at the repo root. A run that
exits nonzero ends the comparison with exit status 1, after printing its
side, workload, seed and stderr. Both exports are removed in every case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the workloads BENCHMARK.json declares, in its order
WORKLOADS = tuple(
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
)


class RunFailed(Exception):
    """A perfbench run exited nonzero; carries its exit code and stderr."""


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Unpack the tree of `rev` (a commit or a tree) into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree() -> str:
    """A tree object of this checkout as `git add -A` would stage it.

    The staging goes through a temporary index, so the checkout's own index
    is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        raise RunFailed(f"exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values: list):
    """q3 - q1 of the values; None for fewer than two."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list) -> dict:
    """Medians and spreads per side and the pairs the change won, per
    workload and metric; per workload, whether every run was correct and
    each side's failed and attempted operations summed over its runs."""
    out = {}
    for workload in WORKLOADS:
        pairs = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for name in pairs[0]["base"]["metrics"]:
            base = [p["base"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            metrics[name] = {
                "base_median": statistics.median(base),
                "change_median": statistics.median(change),
                "base_iqr": iqr(base),
                "change_iqr": iqr(change),
                "change_lower_in_pairs": sum(c < b for b, c in zip(base, change)),
                "pairs": len(pairs),
            }
        metrics["all_correct"] = all(
            p[side]["correct"] for p in pairs for side in ("base", "change")
        )
        for total in ("failed", "attempted"):
            metrics[total] = {
                side: sum(p[side][total] for p in pairs) for side in ("base", "change")
            }
        out[workload] = metrics
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--work", type=Path, default=None)
    args = p.parse_args(argv)

    base_sha = git("rev-parse", "--short", args.base)
    work = Path(args.work or tempfile.mkdtemp())
    work.mkdir(parents=True, exist_ok=True)
    sides = {"base": work / "tree_a", "change": work / "tree_b"}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)

    change_tree = working_tree()
    runs = []
    try:
        export(args.base, sides["base"])
        export(change_tree, sides["change"])
        for i in range(args.pairs):
            seed = args.first_seed + i
            for workload in WORKLOADS:
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                record = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    try:
                        record[side] = perfbench(sides[side], workload, seed, args.seconds)
                    except RunFailed as exc:
                        print(
                            f"perfbench failed on the {side} side, workload {workload}, "
                            f"seed {seed}: {exc}",
                            file=sys.stderr,
                        )
                        return 1
                runs.append(record)
                print(json.dumps(record), flush=True)
    finally:
        # the exports, or the whole work directory when it was a fresh temporary one
        for path in sides.values() if args.work else (work,):
            shutil.rmtree(path, ignore_errors=True)

    bench = {
        "base": git("rev-parse", args.base),
        "change": f"tree {change_tree} on " + git("rev-parse", "HEAD"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "summary": summarize(runs),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{base_sha}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
