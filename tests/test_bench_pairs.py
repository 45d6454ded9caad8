"""The summary arithmetic and the run-line parsing of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

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
