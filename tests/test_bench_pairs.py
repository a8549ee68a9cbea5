"""`tools/bench_pairs.py`'s summary on synthetic runs: the pair count, the
spread, the correctness flag and the failed and attempted totals every
BENCH record reports."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import WORKLOADS, iqr, summarize  # noqa: E402


def side(wall, correct=True, failed=0, attempted=10):
    return {
        "correct": correct,
        "failed": failed,
        "attempted": attempted,
        "metrics": {"wall_ref_s": {"value": wall}},
    }


def runs(pairs, broken=None):
    """Every workload gets the same (base, change) walls; `broken` is a
    (pair index, side) whose run reports correct: false."""
    out = []
    for i, (base, change) in enumerate(pairs):
        for workload in WORKLOADS:
            record = {"workload": workload, "base": side(base), "change": side(change)}
            if broken and broken[0] == i and workload == WORKLOADS[-1]:
                record[broken[1]]["correct"] = False
            out.append(record)
    return out


def test_a_tie_counts_for_neither_side():
    summary = summarize(runs([(1.0, 0.9), (1.0, 1.0), (1.0, 1.1), (2.0, 1.5)]))
    for workload in WORKLOADS:
        wall = summary[workload]["wall_ref_s"]
        assert wall["change_lower_in_pairs"] == 2
        assert wall["pairs"] == 4
        assert wall["base_median"] == 1.0
        assert wall["change_median"] == pytest.approx(1.05)
        assert summary[workload]["all_correct"] is True


@pytest.mark.parametrize("values", [[], [0.5]])
def test_the_spread_of_fewer_than_two_values_is_none(values):
    assert iqr(values) is None


def test_the_spread_is_the_interquartile_range():
    assert iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    summary = summarize(runs([(1.0, 1.0)]))
    assert summary[WORKLOADS[0]]["wall_ref_s"]["base_iqr"] is None


@pytest.mark.parametrize("broken", [(0, "base"), (2, "change")])
def test_one_incorrect_run_on_either_side_clears_all_correct(broken):
    summary = summarize(runs([(1.0, 0.9)] * 3, broken=broken))
    assert summary[WORKLOADS[-1]]["all_correct"] is False
    assert all(summary[w]["all_correct"] for w in WORKLOADS[:-1])


def test_failed_and_attempted_are_summed_per_side_and_workload():
    # the share of failed operations, not only the flag: 1 of 30 on the base
    # side of the last workload, 3 of 33 on its change side, none elsewhere
    records = runs([(1.0, 0.9)] * 3)
    last = [r for r in records if r["workload"] == WORKLOADS[-1]]
    last[0]["base"].update(correct=False, failed=1)
    last[1]["change"].update(correct=False, failed=2, attempted=12)
    last[2]["change"].update(correct=False, failed=1, attempted=11)
    summary = summarize(records)
    assert summary[WORKLOADS[-1]]["failed"] == {"base": 1, "change": 3}
    assert summary[WORKLOADS[-1]]["attempted"] == {"base": 30, "change": 33}
    for workload in WORKLOADS[:-1]:
        assert summary[workload]["failed"] == {"base": 0, "change": 0}
        assert summary[workload]["attempted"] == {"base": 30, "change": 30}
