"""Alternating benchmark pairs of two git revisions, written as BENCH_<n>.json.

Run from the root of an esum-lab checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --workload algebra-sums --pairs 10
    python3 tools/bench_pairs.py PARENT CHANGE --workload all --pairs 2 --out BENCH_27.json

Each revision is exported with ``git archive`` into a temporary directory,
and the unchanged ``perfbench/run.py`` of each export runs there with
``--trace 0``; a run whose last line is not ``correct`` raises, naming the
tree and the workload.  The side that runs first alternates: the parent
opens even pairs, the change odd ones.  The output holds the machine, each
run's end-to-end metrics, failed and attempted counts and the digests
seen, ``same_digest`` (both sides saw one equal digest, as they do when a
change keeps every output's bits), and per metric the quartiles of both
sides (numpy's linear percentiles) and the number of pairs the change wins
(strictly better, in the direction that the change's BENCHMARK.json names)
or ties.  An existing output file is updated: its other keys stay, and
each measured workload's entry is replaced.  With ``--workload all`` the
entries are named "<workload> (--workload all)".  Only numpy and the
standard library are used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

SIDES = ("parent", "change")
SUMMARY_LINE = re.compile(r"^# (\S+): .* (\d+) task samples, failed_share (\S+), digest (\S+)$")


def export(rev, root):
    """The tree of ``rev`` unpacked under ``root``, and its full commit hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    tree = os.path.join(root, full[:12])
    archive = os.path.join(root, full[:12] + ".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, full], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree, full


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``tree``: per workload, its metrics,
    attempted and failed counts and digest."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench/run.py exited with {proc.returncode} in {tree}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if last["correct"] is not True:   # run.py exits 0 on outputs that failed their checks
        raise RuntimeError(f"perfbench/run.py --workload {workload} in {tree} reported correct: {last['correct']}")
    metrics = last["metrics"]
    out = {}
    for line in lines:
        match = SUMMARY_LINE.match(line)
        if match:
            name, attempted, share, digest = match.groups()
            prefix = "" if workload != "all" else name + "."
            out[name] = {"metrics": {key[len(prefix):]: entry["value"] for key, entry in metrics.items()
                                     if key.startswith(prefix)},
                         "attempted": int(attempted), "failed": round(float(share) * int(attempted)),
                         "digest": digest}
    return out


def quartiles(values):
    return [round(float(q), 6) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs, better):
    """Per metric: both sides' (q1, median, q3), and the pairs that the
    change wins strictly or ties.  ``runs`` maps each side to {metric:
    values}, one value a pair; ``better`` maps a metric to "higher" or
    "lower"."""
    summary = {}
    for name, direction in better.items():
        parent, change = (np.asarray(runs[side][name], float) for side in SIDES)
        wins = change > parent if direction == "higher" else change < parent
        summary[name] = {"parent_q1_median_q3": quartiles(parent),
                         "change_q1_median_q3": quartiles(change),
                         "change_wins": int(wins.sum()), "ties": int((change == parent).sum())}
    return summary


def workload_entry(runs, first, better):
    """One workload's output entry from each side's list of ``run_once``
    results for it: the runs, their failed and attempted counts and
    digests, the summary, and ``same_digest``, true when both sides saw one
    and the same digest."""
    entry = {"pairs": len(first), "first_in_pair": first}
    for side in SIDES:
        entry[side] = {"runs": {m: [r["metrics"][m] for r in runs[side]] for m in better},
                       "failed": [r["failed"] for r in runs[side]],
                       "attempted": [r["attempted"] for r in runs[side]],
                       "digest": sorted({r["digest"] for r in runs[side]})}
    digests = [entry[side]["digest"] for side in SIDES]
    entry["same_digest"] = len(digests[0]) == 1 and digests[0] == digests[1]
    entry["summary"] = summarize({side: entry[side]["runs"] for side in SIDES}, better)
    return entry


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    libc = " ".join(platform.libc_ver()).strip()
    return {"cpu": cpu, "vcpus": len(os.sched_getaffinity(0)),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
            "os": f"{platform.system()} {platform.machine()}" + (f", {libc}" if libc else "")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="the output file (default: BENCH_<n>.json after the highest one here)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out_path = args.out
    if out_path is None:
        taken = [int(m.group(1)) for m in map(re.compile(r"^BENCH_(\d+)\.json$").match, os.listdir(".")) if m]
        out_path = f"BENCH_{max(taken, default=0) + 1}.json"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        trees, commits = zip(*(export(rev, root) for rev in (args.parent, args.change)))
        with open(os.path.join(trees[1], "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        results = {side: [] for side in SIDES}
        first = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                print(f"pair {k + 1}/{args.pairs}: {side}", file=sys.stderr)
                results[side].append(run_once(trees[SIDES.index(side)], args.workload, args.seed,
                                              args.seconds))

    doc = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            doc = json.load(fh)
    doc["machine"] = machine()
    doc["harness"] = (f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds "
                      f"{args.seconds:g} --trace 0, from the root of a git archive of each commit")
    doc["protocol"] = (f"parent {commits[0][:7]} against the change {commits[1][:7]}, runs alternating, "
                       "the side that runs first swapping every pair; medians and quartiles by "
                       "numpy's linear percentiles; wins count strictly better runs")
    workloads = doc.setdefault("workloads", {})
    for name in results["parent"][0]:
        workloads[name if args.workload != "all" else f"{name} (--workload all)"] = \
            workload_entry({side: [r[name] for r in results[side]] for side in SIDES}, first, better)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
