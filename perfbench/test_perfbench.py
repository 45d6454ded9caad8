"""Self-tests of the benchmark: layer coverage, failure counting, digests.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    PER_LAYER = [m["name"] for m in json.load(fh)["per_layer"]]

ESUM = [m for m in PER_LAYER if m.startswith("esum.")]
DERIVATIONS = [m for m in PER_LAYER if m.startswith("derivations.")]
JSUM = [m for m in PER_LAYER if m.startswith("jsum.")]

# Per-layer counters and times that must be nonzero on the workload chosen
# to exercise them, and exactly zero where that layer must not run.
NONZERO = {
    "diag-orlicz": [
        "lattice.norm_eval.calls", "lattice.norm_eval_batch.calls",
        "lattice.norm_eval_batch.rows", "lattice.luxemburg_batch.self_s",
        "lattice.generalized_inverse.calls", "lattice.generalized_inverse.self_s",
        "lattice.self_s", "gamma.am_pointwise.calls", "gamma.bilinear_cert.calls",
        "gamma.dual_pairing_lower.self_s", "gamma.primal_decomposition_upper.self_s",
        "gamma.self_s", "gamma.bracket_gap.mean", "gamma.loose_share",
    ],
    "diag-lp": [
        "lattice.norm_eval.calls", "gamma.am_pointwise.calls", "gamma.bilinear_cert.calls",
        "gamma.svd.calls", "gamma.dual_pairing_lower.self_s",
        "gamma.primal_decomposition_upper.self_s", "gamma.self_s",
    ],
    "chain-dp": JSUM,
    "algebra-sums": ESUM + DERIVATIONS + [
        "lattice.norm_eval_batch.calls", "lattice.norm_eval_batch.rows",
        "lattice.norm_eval_batch.rows_per_call", "lattice.generalized_inverse.calls",
        "lattice.self_s",
    ],
}
ZERO = {
    "diag-orlicz": ESUM + DERIVATIONS + JSUM,
    "diag-lp": ESUM + DERIVATIONS + JSUM + [
        "lattice.generalized_inverse.calls", "lattice.generalized_inverse.self_s",
        "lattice.luxemburg_batch.self_s",
    ],
    "chain-dp": [m for m in PER_LAYER if m.split(".")[0] in ("lattice", "gamma", "esum", "derivations")],
    "algebra-sums": [m for m in PER_LAYER if m.split(".")[0] in ("gamma", "jsum")],
}


def _one_pass(workload, mode, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--mode", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(workloads.BUILDERS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_coverage(workload):
    res = _one_pass(workload, "trace")
    assert res["failed"] == 0
    metrics = res["metrics"]
    assert [m for m in NONZERO[workload] if not metrics[m] > 0] == []
    assert [m for m in ZERO[workload] if metrics[m] != 0] == []
    assert metrics["cli.import_s"] > 0


@pytest.mark.parametrize("workload", ["diag-lp", "chain-dp"])
def test_traced_digest_matches_untraced(workload):
    assert _one_pass(workload, "trace")["digest"] == _one_pass(workload, "run")["digest"]


def test_wrong_expectation_and_raising_task_count_as_failed():
    tasks = workloads.build("diag-lp", 3)[:3]
    tasks[0].expected = 0.5          # AM is at least 1, so this must fail

    def boom():
        raise RuntimeError("injected")
    tasks[1].run = boom
    res = worker.run_tasks(tasks, 0.0)
    assert res["passes"] == 1 and res["attempted"] == 3
    assert sorted(i for _, i, _ in res["failures"]) == [0, 1]
    assert "closed form 0.5 outside" in res["failures"][-1][2]
    assert res["summaries"][2] is not None


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-dp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
