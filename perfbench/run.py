"""promptuq benchmark: inference and UQ wall time, query cost and quality.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

Workloads (defined in workloads.py): infer_logits, infer_labels and
evaluate_wide. A run times set-up in ``SETUP_REPEATS`` fresh interpreters
(``setup_s`` is their median), then measures in one fresh worker process
(worker.py), so no two workloads share memory or imports. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run; its spans go to ``.bench_out/spans_<workload>.ndjson``. Scratch
files live under ``.bench_tmp/`` and are removed when the run ends.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 with a result, and 2 without one: when the
promptuq sources are missing or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 9
RUN_TIMEOUT = 175.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("run exceeded its time limit")
    return left


def time_setup(args, tmp: str, deadline: float) -> float:
    """Seconds from interpreter start until the worker's set-up reports ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "setup", "--workload", args.workload,
         "--scale", args.scale, "--tmp", tmp],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError(f"set-up of {args.workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(args, tmp: str, deadline: float) -> dict:
    spans = os.path.join(ROOT, ".bench_out", f"spans_{args.workload}.ndjson")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, WORKER, "measure", "--workload", args.workload,
         "--scale", args.scale, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--tmp", tmp, "--spans", spans],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker exceeded the run's time limit") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker for {args.workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=base)
    try:
        setups = [] if args.trace else [
            time_setup(args, os.path.join(tmp, f"setup{i}"), deadline)
            for i in range(SETUP_REPEATS)]
        result = run_worker(args, os.path.join(tmp, "measure"), deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    values = result["metrics"]
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]!r} {unit}")
    for problem in result["problems"][:20]:
        print(f"{args.workload} problem: {problem}", file=sys.stderr)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Each workload in its own ``run.py`` process; metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT + 5)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{workload} failed (exit {proc.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every size, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "promptuq", "__init__.py")):
        print(f"promptuq sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: a served round
    # trip is then a context switch, not a cross-CPU wake-up, whose latency
    # on an otherwise idle virtual machine varied 1.5-fold between runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
