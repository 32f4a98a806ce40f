"""One benchmark measurement, run in a fresh interpreter by ``run.py``.

    python3 perfbench/worker.py measure --workload W --seed N --seconds T \
        --trace 0|1 --tmp DIR [--scale full|tiny]
    python3 perfbench/worker.py setup --workload W --tmp DIR [--scale full|tiny]

``measure`` runs workload iterations until at least ``MIN_ITERATIONS`` are
done and ``--seconds`` have passed, checks every experiment and prints one
JSON line: operation counts, the problems found and the metrics.
Untraced, it reports the end-to-end metrics except ``setup_s``; traced, it
alternates untraced and traced iterations at one seed and reports the
per-layer metrics, the tracing overhead and the trace self-checks.

``setup`` does what a user does before the first ``run_experiment``: import
promptuq, build the task and, for served experiments, write the dataset
files and bring up each transport's server up to its handshake. It prints
``ready`` at that point; ``run.py`` times it from process start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# promptuq children (``python -m promptuq serve``) must load the same sources
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import promptuq.predictive  # noqa: E402
from promptuq import (ExternalSimulator, TaskConfig,  # noqa: E402
                      experiment_config_from_dict, make_synthetic_task,
                      run_experiment)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import REFERENCE_SEED, STDIO, TCP  # noqa: E402

MIN_ITERATIONS = 3
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
HOST = "127.0.0.1"
TRACED_SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")
SERVER_TIMEOUT = 60.0


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- served endpoints -------------------------------------------------------

def write_datasets(workload: workloads.Workload, directory: str) -> dict:
    """Task file and NDJSON splits a served experiment reads; returns their paths."""
    task = make_synthetic_task(TaskConfig(**workload.task))
    os.makedirs(directory, exist_ok=True)
    paths = {"task": os.path.join(directory, "task.json")}
    with open(paths["task"], "w", encoding="utf-8") as fh:
        json.dump(workload.task, fh)
    splits = {"train": (task.train.X, task.train.y), "test": (task.test.X, task.test.y),
              "near_ood": (task.near_ood, None), "far_ood": (task.far_ood, None)}
    for name, (xs, ys) in splits.items():
        paths[name] = os.path.join(directory, f"{name}.ndjson")
        with open(paths[name], "w", encoding="utf-8") as fh:
            for i, x in enumerate(xs):
                record = {"x": [float(v) for v in x]}
                if ys is not None:
                    record["y"] = int(ys[i])
                fh.write(json.dumps(record) + "\n")
    return paths


def server_argv(task_path: str, labels_only: bool, spans: tuple | None) -> list[str]:
    """``promptuq serve`` argv; ``spans`` = (path, experiment id) traces it."""
    if spans is None:
        argv = [sys.executable, "-m", "promptuq"]
    else:
        argv = [sys.executable, TRACED_SERVE, spans[0], str(spans[1])]
    argv += ["serve", "--task", task_path]
    return argv + ["--labels-only"] if labels_only else argv


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class TcpServer:
    """A ``promptuq serve --tcp`` child, ready once it has sent a handshake."""

    def __init__(self, task_path: str, spans: tuple | None = None):
        self.port = _free_port()
        self.proc = subprocess.Popen(server_argv(task_path, False, spans)
                                     + ["--tcp", f"{HOST}:{self.port}"],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + SERVER_TIMEOUT
        while True:
            try:  # a plain socket, so a traced client records no span for it
                with socket.create_connection((HOST, self.port)) as sock:
                    sock.makefile("rb").readline()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("TCP server did not come up")
                time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=SERVER_TIMEOUT)


# --- one iteration ----------------------------------------------------------

@dataclass
class Operation:
    """One experiment plus its checks."""

    label: str
    wall: float = 0.0
    values: dict | None = None
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Context:
    workload: workloads.Workload
    reference: dict
    tmp: str
    datasets: dict | None
    tables: list = field(default_factory=list)
    twins: dict = field(default_factory=dict)
    count: int = 0


def make_context(workload: workloads.Workload, tmp: str, reference: dict) -> Context:
    """Dataset files for served experiments, and table capture for the checks."""
    datasets = None
    if any(exp.endpoint for exp in workload.experiments):
        datasets = write_datasets(workload, os.path.join(tmp, "datasets"))
    ctx = Context(workload, reference, tmp, datasets)
    capture_tables(ctx.tables)
    return ctx


def capture_tables(sink: list) -> None:
    """Keep every predictive table ``run_experiment`` builds, for the checks."""
    for name in ("predictive_from_logits", "predictive_from_labels"):
        original = getattr(promptuq.predictive, name)

        def hook(*args, _original=original, **kwargs):
            table = _original(*args, **kwargs)
            sink.append(table)
            return table

        setattr(promptuq.predictive, name, hook)


def _served_payload(exp, seed: int, ctx: Context, endpoint: dict) -> dict:
    task = {"endpoint": endpoint, "datasets": {k: v for k, v in ctx.datasets.items()
                                               if k != "task"},
            "prior": {"dim": exp.task["subspace_dim"],
                      "sigma": TaskConfig(**exp.task).prior_sigma}}
    return {"task": task, "method": exp.method, "seed": seed, "params": exp.params}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def in_process_twin(exp, seed: int, ctx: Context, tracer=None) -> dict:
    """Outcome of a served experiment run in process, untraced and cached per seed."""
    key = (exp.label, seed)
    if key not in ctx.twins:
        if tracer is not None:
            tracer.uninstall()
        out_dir = os.path.join(ctx.tmp, f"twin_{exp.label}_{seed}")
        try:
            report = run_experiment(experiment_config_from_dict(
                workloads.in_process_payload(exp, seed)), out_dir)
            ctx.twins[key] = checks.outcome(report.summary)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.install()
    return ctx.twins[key]


def run_operation(exp, seed: int, ctx: Context, tracer=None,
                  server_spans: list | None = None) -> Operation:
    seed = REFERENCE_SEED if exp.pinned else seed
    op = Operation(exp.label)
    ctx.count += 1
    out_dir = os.path.join(ctx.tmp, f"run{ctx.count:04d}_{exp.label}")
    spans = None
    if tracer is not None and exp.endpoint is not None:
        spans = (os.path.join(ctx.tmp, f"spans{ctx.count:04d}.ndjson"), ctx.count)
    server = None
    try:
        if exp.endpoint == TCP:
            server = TcpServer(ctx.datasets["task"], spans)
            payload = _served_payload(exp, seed, ctx, {"host": HOST, "port": server.port})
        elif exp.endpoint == STDIO:
            argv = server_argv(ctx.datasets["task"], True, spans)
            payload = _served_payload(exp, seed, ctx, {"argv": argv})
        else:
            payload = workloads.in_process_payload(exp, seed)
        config = experiment_config_from_dict(payload)
        ctx.tables.clear()
        start = time.perf_counter()
        try:
            if tracer is None:
                report = run_experiment(config, out_dir)
            else:
                tracer.experiment = ctx.count
                with tracer.span("experiment.run_experiment"):
                    report = run_experiment(config, out_dir)
        finally:
            op.wall = time.perf_counter() - start
    except Exception as exc:  # a failed experiment is counted, not fatal
        op.problems.append(f"{exp.label} seed {seed}: {type(exc).__name__}: {exc}")
        return op
    finally:
        if server is not None:
            server.stop()
        if spans is not None and os.path.exists(spans[0]):
            server_spans.extend(tracing.load(spans[0], id_offset=10 ** 9 * ctx.count))

    try:
        op.values = checks.outcome(report.summary)
        op.artifact_bytes = _dir_bytes(out_dir)
        problems = (checks.check_posterior(report.files["posterior"],
                                           config.resolved_sample_count())
                    + checks.check_tables(ctx.tables, 3, exp.task["classes"])
                    + checks.check_ranges(op.values))
        if seed == REFERENCE_SEED:
            expected = ctx.reference[ctx.workload.scale][ctx.workload.name][exp.label]
            problems += checks.compare(op.values, expected, "reference")
        elif exp.endpoint is not None:
            problems += checks.compare(op.values, in_process_twin(exp, seed, ctx, tracer),
                                       "in-process")
    except Exception as exc:  # a check that cannot run fails the operation
        problems = [f"check failed: {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    op.problems = [f"{exp.label} seed {seed}: {p}" for p in problems]
    return op


def run_iteration(seed: int, ctx: Context, tracer=None, server_spans=None) -> list[Operation]:
    return [run_operation(exp, seed, ctx, tracer, server_spans)
            for exp in ctx.workload.experiments]


# --- measurement ------------------------------------------------------------

def _iteration_wall(ops) -> float:
    return sum(op.wall for op in ops)


def _iteration_calls(ops) -> int:
    return sum(op.values["sim_calls"] for op in ops if op.values is not None)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(iterations: list[list[Operation]]) -> dict[str, float]:
    """End-to-end metrics of an untraced run (``setup_s`` is added by run.py).

    ``wall_s`` sums, over the workload's experiments, each experiment's
    median wall time over the iterations: the machine's slow spells last
    seconds, so medians of the shorter per-experiment times are steadier
    than a median of whole iterations. Simulator calls and quality come from
    iteration 0, which runs at the reference seed in every run, so they move
    only when results change; the quality metrics of other seeds spread by
    up to 13% (interquartile range over median) from seed to seed.
    """
    ops = [op for it in iterations for op in it]
    per_experiment: dict[str, list[float]] = {}
    for op in ops:
        per_experiment.setdefault(op.label, []).append(op.wall)
    wall = sum(statistics.median(walls) for walls in per_experiment.values())
    judged = [op.values for op in iterations[0] if op.values is not None]
    metrics = {
        "wall_s": wall,
        "pairs_per_s": statistics.median(_iteration_calls(it) for it in iterations) / wall,
        "sim_calls": _iteration_calls(iterations[0]),
        "peak_rss_mb": _peak_rss_mb(),
        "pass_rate": sum(not op.problems for op in ops) / len(ops),
    }
    for key in checks.QUALITY:
        metrics[key] = statistics.mean(v[key] for v in judged) if judged else 0.0
    return metrics


def measure(ctx: Context, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    iterations = []
    while len(iterations) < MIN_ITERATIONS or time.monotonic() - start < seconds:
        iterations.append(run_iteration(workloads.experiment_seed(seed, len(iterations)), ctx))
    ops = [op for it in iterations for op in it]
    return {"attempted": len(ops), "failed": sum(bool(op.problems) for op in ops),
            "problems": [p for op in ops for p in op.problems],
            "metrics": end_to_end(iterations)}


def measure_traced(ctx: Context, seed: int, seconds: float, spans_path: str) -> dict:
    """Pairs of untraced and traced iterations at one seed.

    Counts are exact and equal in every traced iteration; time metrics are
    medians over them. Each traced iteration also checks that the pairs
    counted at the query boundary (blackbox in process, the protocol for a
    served experiment) equal the simulator calls the budgets charged, and
    that the servers' blackbox counted the pairs the protocol carried.
    """
    seed = workloads.experiment_seed(seed, 1)
    start = time.monotonic()
    plain_walls, traced_walls, layers, ops, self_checks = [], [], [], [], []
    while not layers or time.monotonic() - start < seconds:
        plain = run_iteration(seed, ctx)
        tracer, server_spans = tracing.Tracer(), []
        try:
            tracer.install()
            traced = run_iteration(seed, ctx, tracer, server_spans)
        finally:
            tracer.uninstall()
        ops += plain + traced
        plain_walls.append(_iteration_wall(plain))
        traced_walls.append(_iteration_wall(traced))
        m = tracing.layer_metrics(tracer.spans + server_spans,
                                  sum(op.artifact_bytes for op in traced))
        client = tracing.layer_metrics(tracer.spans, 0)
        calls = _iteration_calls(traced)
        counted = client["blackbox.pairs"] + client["protocol.pairs"]
        served = m["blackbox.pairs"] - client["blackbox.pairs"]
        problems = []
        if counted != calls:
            problems.append(f"blackbox.pairs + protocol.pairs {counted} != "
                            f"simulator calls {calls}")
        if served != client["protocol.pairs"]:
            problems.append(f"server blackbox.pairs {served} != "
                            f"protocol.pairs {client['protocol.pairs']}")
        self_checks.append(problems)
        if not layers:
            tracing.dump(itertools.chain(
                tracing.records(tracer.spans, tracer.origin),
                tracing.records(server_spans, process="server")), spans_path)
        layers.append(m)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    return {"attempted": len(ops) + len(self_checks),
            "failed": sum(bool(p) for p in [op.problems for op in ops] + self_checks),
            "problems": [p for group in [op.problems for op in ops] + self_checks
                         for p in group],
            "metrics": metrics}


def setup(workload: workloads.Workload, tmp: str) -> None:
    make_synthetic_task(TaskConfig(**workload.task))
    endpoints = {exp.endpoint for exp in workload.experiments}
    servers = []
    if endpoints - {None}:
        paths = write_datasets(workload, tmp)
        if STDIO in endpoints:
            ExternalSimulator.spawn(server_argv(paths["task"], True, None)).close()
        if TCP in endpoints:
            servers.append(TcpServer(paths["task"]))
    print("ready", flush=True)
    for server in servers:
        server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "setup"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scale", default="full", choices=workloads.SCALES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.scale)
    os.makedirs(args.tmp, exist_ok=True)
    if args.mode == "setup":
        setup(workload, args.tmp)
        return 0
    ctx = make_context(workload, args.tmp, load_reference())
    if args.trace:
        spans_path = args.spans or os.path.join(args.tmp, "spans.ndjson")
        result = measure_traced(ctx, args.seed, args.seconds, spans_path)
    else:
        result = measure(ctx, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
