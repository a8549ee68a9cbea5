"""memheat benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {march,gram} --seed N \
        --seconds S --trace {0,1}

Closed loop, one command at a time. Each pass of the workload runs in a
fresh interpreter (``worker.py``) that imports memheat from the checkout's
``src`` and drives every command through ``memheat.cli.main`` in-process,
so a pass pays the same lazy initialisation a CLI user pays. Passes repeat
until ``--seconds`` have gone by, and at least twice. Every command run is
checked: exit code 0, the paper's invariants (``checks.py``), and byte
identity with the first pass of the seed; a run failing any check counts
in ``failed``.

``--trace 0`` reports the end-to-end metrics, medians over passes:
``wall_ref_s`` (seconds inside ``cli.main`` per pass, scaled to a reference
CPU speed; see below), ``setup_s`` (seconds from
spawning a fresh interpreter to memheat imported and the first config
parsed; at least SETUP_SAMPLES interpreters) and ``peak_rss_mb`` (peak
resident memory of a pass's process). ``--trace 1`` reports the per-layer
metrics of ``spans.METRICS`` from one traced pass, plus the tracing overhead
against the untraced passes, and fails if the computed work counts differ
on a second seed.

``wall_ref_s`` is the pass time at a reference CPU speed: each command's
seconds times the speed scale ``worker.py`` measured beside it. A change that
makes memheat faster or slower moves it in proportion; a drift in the host's
speed moves it much less than it moves raw seconds, whose median is printed
beside it as ``wall_s``.

The last line of standard output is the JSON result; the lines before it
record the machine and the sample counts behind each median.
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
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
MIN_PASSES = 2  # the second pass checks byte identity against the first
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Pass:
    setup_s: float
    wall_s: float
    wall_ref_s: float
    peak_rss_mb: float
    failed: int
    layers: dict


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def spawn(first_config: Path, argvs, tmp: Path, trace: bool = False) -> dict:
    """Run the argvs in a fresh worker; its result plus `setup_s`."""
    spec, result = tmp / "spec.json", tmp / "result.json"
    spec.write_text(json.dumps({
        "src": str(SRC),
        "first_config": str(first_config),
        "commands": [list(argv) for argv in argvs],
        "trace": trace,
    }))
    result.unlink(missing_ok=True)
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
        stdout=sys.stderr,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - start
    return out


def check_pass(commands, codes, reference: dict) -> int:
    """Failed command runs of one pass.

    The first pass of a seed fills `reference` with output digests; later
    passes must match them byte for byte.
    """
    failed = 0
    for cmd, code in zip(commands, codes):
        if code != 0:
            problems = [f"exit {code}"]
        else:
            problems = checks.check(cmd.name, cmd.out)
            digest = checks.digest(cmd.out)
            if reference.setdefault(cmd.out, digest) != digest:
                problems.append("outputs differ in bytes from the first pass")
        if problems:
            failed += 1
            print(f"FAILED {cmd.name}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def run_pass(commands, tmp: Path, reference: dict, trace: bool = False) -> Pass:
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
    out = spawn(commands[0].config, [c.argv for c in commands], tmp, trace)
    return Pass(
        setup_s=out["setup_s"],
        wall_s=sum(out["walls"]),
        wall_ref_s=sum(wall * scale for wall, scale in zip(out["walls"], out["scales"])),
        peak_rss_mb=out["peak_rss_kb"] / 1024.0,
        failed=check_pass(commands, out["codes"], reference),
        layers=out["layers"],
    )


def timed_passes(commands, tmp: Path, seconds: float, reference: dict) -> list:
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_pass(commands, tmp, reference))
    return passes


def report(label: str, values: list, unit: str) -> None:
    print(
        f"{label}: median {statistics.median(values):.6g} {unit} over "
        f"{len(values)} samples (min {min(values):.6g}, max {max(values):.6g})"
    )


def end_to_end(commands, tmp: Path, seconds: float) -> tuple:
    passes = timed_passes(commands, tmp, seconds, {})
    setups = [p.setup_s for p in passes]
    setups += [spawn(commands[0].config, [], tmp)["setup_s"]
               for _ in range(SETUP_SAMPLES - len(setups))]
    walls = [p.wall_s for p in passes]
    scaled = [p.wall_ref_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    for label, values, unit in (("wall_s", walls, "s"), ("wall_ref_s", scaled, "s"),
                                ("setup_s", setups, "s"), ("peak_rss_mb", rss, "MB")):
        report(label, values, unit)
    metrics = {
        "wall_ref_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, len(passes) * len(commands), sum(p.failed for p in passes), True


def layered(commands, other, tmp: Path, seconds: float) -> tuple:
    reference = {}
    passes = timed_passes(commands, tmp, seconds, reference)
    traced = run_pass(commands, tmp, reference, trace=True)
    # The computed counts must not depend on the seeded values.
    traced_other = run_pass(other, tmp, {}, trace=True)
    drift = [
        f"{k} {traced.layers[k]} vs {traced_other.layers[k]}"
        for k in spans.SEED_INVARIANT
        if traced.layers[k] != traced_other.layers[k]
    ]
    for line in drift:
        print(f"FAILED seed invariance: {line}", file=sys.stderr)
    walls = [p.wall_s for p in passes]
    report("untraced wall_s", walls, "s")
    print(f"traced wall_s: {traced.wall_s:.6g} s over 1 sample")
    layers = dict(traced.layers)
    layers["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
    metrics = {name: (layers[name], unit) for name, unit in spans.METRICS}
    runs = passes + [traced, traced_other]
    attempted = len(passes) * len(commands) + len(commands) + len(other)
    return metrics, attempted, sum(p.failed for p in runs), not drift


def run(args, tmp: Path) -> dict:
    commands = workloads.build(args.workload, args.seed, tmp / "a")
    info = machine_info()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                commands=[" ".join(c.argv[:1] + c.argv[5:]) for c in commands])
    print("machine:", json.dumps(info, sort_keys=True))
    if args.trace:
        other = workloads.build(args.workload, args.seed + 1, tmp / "b")
        metrics, attempted, failed, invariant = layered(commands, other, tmp, args.seconds)
    else:
        metrics, attempted, failed, invariant = end_to_end(commands, tmp, args.seconds)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    return {
        "correct": failed == 0 and invariant,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memheat" / "cli.py").is_file():
        print(f"not a memheat checkout: {SRC / 'memheat' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
