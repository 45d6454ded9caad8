"""The summary arithmetic, the run-line parsing and the correctness and
digest checks of tools/bench_pairs.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_strict_wins_in_each_direction():
    runs = {"parent": {"tasks_per_s": [10.0, 20.0, 30.0, 40.0], "task_s.p90": [1.0, 2.0, 3.0, 4.0]},
            "change": {"tasks_per_s": [11.0, 20.0, 29.0, 50.0], "task_s.p90": [0.5, 2.0, 3.5, 1.0]}}
    summary = bench_pairs.summarize(runs, {"tasks_per_s": "higher", "task_s.p90": "lower"})
    assert summary["tasks_per_s"] == {"parent_q1_median_q3": [17.5, 25.0, 32.5],
                                      "change_q1_median_q3": [17.75, 24.5, 34.25],
                                      "change_wins": 2, "ties": 1}
    assert summary["task_s.p90"]["change_wins"] == 2 and summary["task_s.p90"]["ties"] == 1


def test_workload_lines_of_the_harness_parse():
    line = ("# algebra-sums: 14 timed tasks a pass, 2340 passes, 32774 task samples, "
            "failed_share 0, digest 900dc889")
    assert bench_pairs.SUMMARY_LINE.match(line).groups() == ("algebra-sums", "32774", "0", "900dc889")


def _faked_run(monkeypatch, correct):
    """run_once on a faked perfbench/run.py: one workload line and a last line."""
    stdout = ("# chain-dp: 90 timed tasks a pass, 5 passes, 450 task samples, failed_share 0, digest 977f6ef6\n"
              + json.dumps({"correct": correct, "attempted": 450, "failed": 0,
                            "metrics": {"tasks_per_s": {"value": 90.0}}}) + "\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs:
                        subprocess.CompletedProcess(args, 0, stdout=stdout, stderr=""))
    return bench_pairs.run_once("/trees/abc123", "chain-dp", 42, 1)


def test_a_run_whose_outputs_failed_their_checks_raises(monkeypatch):
    assert _faked_run(monkeypatch, True) == {"chain-dp": {"metrics": {"tasks_per_s": 90.0}, "attempted": 450,
                                                         "failed": 0, "digest": "977f6ef6"}}
    with pytest.raises(RuntimeError, match=r"--workload chain-dp in /trees/abc123 reported correct: False"):
        _faked_run(monkeypatch, False)


def _run(digest, rate):
    return {"metrics": {"tasks_per_s": rate}, "attempted": 10, "failed": 0, "digest": digest}


@pytest.mark.parametrize("parent, change, same", [
    (["aa", "aa"], ["aa", "aa"], True),    # one equal digest on both sides
    (["aa", "aa"], ["bb", "bb"], False),   # outputs that changed
    (["aa", "bb"], ["aa", "bb"], False),   # a side whose runs disagree
])
def test_same_digest_needs_one_equal_digest_on_both_sides(parent, change, same):
    runs = {"parent": [_run(d, 10.0) for d in parent], "change": [_run(d, 11.0) for d in change]}
    entry = bench_pairs.workload_entry(runs, ["parent", "change"], {"tasks_per_s": "higher"})
    assert entry["same_digest"] is same
    assert entry["pairs"] == 2 and entry["parent"]["digest"] == sorted(set(parent))
    assert entry["summary"]["tasks_per_s"]["change_wins"] == 2
