"""One benchmark process: set up a workload, run it closed-loop, check it.

run.py starts a fresh process of this script for every measurement, so that
its peak RSS belongs to one workload alone.  The last line on stdout is one
JSON object.  Modes:

  setup   import the library, build the task list, report the CPU time it took
  run     also run the task list back to back for --seconds, then check it
  trace   the same, with spans recorded around every layer boundary
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

OUT_DIR = ".perfbench"   # digests and span files, under the checkout root

# Every time the benchmark takes is CPU time of the worker process, all of
# its threads.  On a shared virtual machine the wall time of the same code
# swings by up to 5x as other guests take the host's cores (steal time);
# the kernel leaves steal time out of a process's CPU time.
CLOCK = time.process_time
REF_EVERY_S = 0.02       # time the reference loop at least this often (CPU s)
REF_NOMINAL_S = 1e-3     # task times are scaled to a host where it takes this
SETUP_REFS = 10          # reference loops timed after set-up


def reference_loop():
    """CPU seconds taken by a fixed mix of work: the host's current speed.

    CPU time still drifts by up to 2.5x for minutes at a time, as other
    guests contend for the cores' caches and execution units, and not by
    the same factor for all code.  The mix has the three kinds of work the
    workloads do: interpreted Python, numpy calls on small arrays and small
    LAPACK calls.  It is the benchmark's own code, so no change to the
    library moves it.
    """
    x = np.linspace(0.1, 1.0, 5)
    m = np.eye(4) + np.arange(16.0).reshape(4, 4) / 160.0
    t0 = CLOCK()
    total = 0
    for i in range(6_000):
        total += i
    lam = 1.0
    for _ in range(85):
        lam = 0.99 * lam + 0.01 * float((np.maximum(x / lam - 0.25, 0.0) ** 2).sum())
    for _ in range(17):
        np.linalg.svd(m)
        np.linalg.inv(m)
        np.linalg.det(m)
    return CLOCK() - t0


def _render(value):
    """Canonical text of a summary: floats to 12 significant digits."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def run_tasks(tasks, seconds, tracer=None):
    """Run whole passes of ``tasks`` back to back, then check the outputs.

    Untraced runs stop at the first task boundary after ``seconds``; traced
    runs stop at a pass boundary so their counts cover whole passes.  The
    first pass always completes.  Tasks marked ``once`` run a single time,
    untimed, after the passes.  First outputs are checked outside the timed
    interval, and every later output must render exactly like the first.
    A task that raises or fails its check counts as failed, and so does
    every later output that repeats a failed one.
    """
    timed = [i for i, task in enumerate(tasks) if not task.once]
    times = {i: [] for i in timed}   # (task CPU time, reference loop time)
    first = [None] * len(tasks)
    rendered = [None] * len(tasks)
    repeats = [0] * len(tasks)   # outputs rendering like the first one
    failures = []
    attempted = 0
    passes = 0

    def attempt(i, label):
        nonlocal attempted
        if tracer is not None:
            tracer.task = label
        t0 = CLOCK()
        try:
            out = tasks[i].run()
        except Exception:
            out = None
            failures.append((label, i, traceback.format_exc(limit=3).strip()))
        elapsed = CLOCK() - t0
        attempted += 1
        if out is not None:
            text = _render(tasks[i].summary(out))
            if rendered[i] is None:
                first[i], rendered[i] = out, text
            if text == rendered[i]:
                repeats[i] += 1
            else:
                failures.append((label, i, "output differs from the first one"))
        return elapsed

    # Each pass pins the calling thread to the next CPU in turn (BLAS threads
    # keep their own affinity), so that a task and the reference loop timed
    # before it share a CPU, and the repetitions sample every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    ref = last_ref = None
    deadline = time.perf_counter() + seconds
    done = False
    try:
        while not done:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            for i in timed:
                if passes and tracer is None and time.perf_counter() >= deadline:
                    done = True
                    break
                if last_ref is None or CLOCK() - last_ref >= REF_EVERY_S:
                    ref = reference_loop()
                    last_ref = CLOCK()
                times[i].append((attempt(i, f"{passes}.{i}"), ref))
            else:
                passes += 1
                done = time.perf_counter() >= deadline
    finally:
        os.sched_setaffinity(0, cpus)
    for i, task in enumerate(tasks):
        if task.once:
            attempt(i, "once")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        tracer.active = False
    summaries = []
    for i, (task, out) in enumerate(zip(tasks, first)):
        summaries.append(None if out is None else task.summary(out))
        if out is None:
            continue
        try:
            problem = task.check(out)
        except Exception:
            problem = traceback.format_exc(limit=3).strip()
        if problem:
            failures += [("check", i, problem)] * repeats[i]
    digest_text = "\n".join(r or "failed" for r in rendered) + "\n"
    return {
        "times": list(times.values()),
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "summaries": summaries,
        "digest_text": digest_text,
        "digest": hashlib.sha256(digest_text.encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
    }


def _percentile(sorted_values, q):
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timing_metrics(times):
    """Task-time metrics over the fixed mix of one pass.

    Each repetition's CPU time is scaled by REF_NOMINAL_S over the reference
    loop timed just before it, so that it reads as on a host where that loop
    takes REF_NOMINAL_S; a task's time is the median of its scaled
    repetitions.  One value per task keeps the partial last pass from
    tilting the mix.
    """
    per_task = sorted(statistics.median(t * REF_NOMINAL_S / r for t, r in reps)
                      for reps in times)
    return {
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_s.p50": _percentile(per_task, 0.5),
        "task_s.p90": _percentile(per_task, 0.9),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = CLOCK()
    import esum_lab.cli  # noqa: F401  (imports every layer)
    import_s = CLOCK() - t0
    import workloads

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer().install()
    tasks = workloads.build(args.workload, args.seed)
    # CPU time since the process started, interpreter start-up included,
    # scaled like the task times by the reference loop timed right after
    setup_cpu_s = CLOCK()
    setup_ref_s = statistics.median(reference_loop() for _ in range(SETUP_REFS))
    setup_s = setup_cpu_s * REF_NOMINAL_S / setup_ref_s
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    res = run_tasks(tasks, args.seconds, tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{args.mode}")
    with open(stem + ".digest.txt", "w") as fh:
        fh.write(res["digest_text"])
    metrics = timing_metrics(res["times"])
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    metrics.update(workloads.quality(res["summaries"]))
    metrics["cli.import_s"] = import_s
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
        layer = tracer.metrics(res["passes"])
        task_s = sum(t for reps in res["times"] for t, _ in reps) / res["passes"]
        for name in tracing.LAYERS:
            layer[name + ".self_share"] = layer.pop(name + ".task_self_s") / task_s
        calls = layer["lattice.norm_eval_batch.calls"]
        layer["lattice.norm_eval_batch.rows_per_call"] = (
            layer["lattice.norm_eval_batch.rows"] / calls if calls else 0.0)
        pairs = layer["jsum.jnorm.pairs"]
        layer["jsum.jnorm.us_per_pair"] = 1e6 * layer["jsum.jnorm.self_s"] / pairs if pairs else 0.0
        metrics.update(layer)
    for label, i, problem in res["failures"]:
        print(f"FAILED task {i} ({label}): {problem}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "passes": res["passes"],
        "tasks": len(res["times"]),
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "digest": res["digest"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
