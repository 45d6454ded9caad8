"""esum-lab benchmark: one closed-loop caller, seeded workloads, checked outputs.

Run from the root of an esum-lab checkout:

    python3 perfbench/run.py --workload diag-orlicz --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints its per-layer metrics, from a traced run set against
an untraced one of the same length.  Every measurement runs in a fresh
worker process with BLAS threads capped at the CPU count.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("diag-orlicz", "diag-lp", "chain-dp", "algebra-sums")
SETUP_SAMPLES = 3          # set-up is timed in this many fresh processes
WORKER_GRACE_S = 60        # a worker still running this long past --seconds is stuck


def _worker(workload, seed, seconds, mode, env):
    """Run one worker process and return (its JSON result, its set-up time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["setup_s"]


def measure(workload, seed, seconds, trace, env):
    """Metrics of one workload, and its attempted/failed counts."""
    if not trace:
        res, setup = _worker(workload, seed, seconds, "run", env)
        setups = [setup] + [_worker(workload, seed, 0, "setup", env)[1]
                            for _ in range(SETUP_SAMPLES - 1)]
        metrics = dict(res["metrics"], setup_s=statistics.median(setups))
        print(f"# {workload}: {res['tasks']} timed tasks a pass, {res['passes']} passes, "
              f"{res['attempted']} task samples, failed_share "
              f"{res['failed'] / res['attempted']:.6g}, digest {res['digest']}")
        return metrics, res["attempted"], res["failed"], True
    plain, _ = _worker(workload, seed, seconds / 2, "run", env)
    traced, _ = _worker(workload, seed, seconds / 2, "trace", env)
    metrics = dict(traced["metrics"], **{
        "trace.overhead_share": 1.0 - traced["metrics"]["tasks_per_s"]
        / plain["metrics"]["tasks_per_s"]})
    same = plain["digest"] == traced["digest"]
    print(f"# {workload}: traced {traced['passes']} passes; digest "
          f"{'identical' if same else 'DIFFERS'} traced {traced['digest']} "
          f"untraced {plain['digest']}")
    return (metrics, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], same)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "esum_lab", "__init__.py")):
        print("perfbench: src/esum_lab not found; run from the root of an esum-lab checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # Idle OpenBLAS threads sleep at once instead of spinning for about 0.1 s
    # after each call; the spinning would count in the CPU time measured.
    env["OPENBLAS_THREAD_TIMEOUT"] = "4"

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {}
    attempted = failed = 0
    correct = True
    for name in names:
        metrics, a, f, ok = measure(name, args.seed, args.seconds, args.trace, env)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
        prefix = "" if len(names) == 1 else name + "."
        for m in wanted:
            value = float(metrics[m["name"]])
            print(f"{prefix}{m['name']} {value:.6g} {m['unit']}")
            out[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
