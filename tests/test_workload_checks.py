"""The benchmark's `march` workload, run in process, passes the benchmark's
own output checks.

`perfbench/checks.py` restates the gate's invariants for the benchmark's
outputs: C3's solve-vs-explicit bound on `simulate`, the convergence ratios
in [3.9, 4.1] of `simulate --refine`, and C5's residual bound on `moment`.
Running one seed of the workload here makes those hold on every push, not
only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

from memheat.cli import main  # noqa: E402


def test_march_workload_passes_the_benchmark_checks(tmp_path):
    commands = workloads.build("march", 1, tmp_path)
    assert [c.name for c in commands] == ["simulate", "moment"]
    for command in commands:
        assert main(list(command.argv)) == 0, command.name
        assert checks.check(command.name, command.out) == [], command.name
