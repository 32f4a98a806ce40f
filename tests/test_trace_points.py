"""The benchmark's tracer wraps each traced method at ``vars(owner)[attr]``.

A refactor that moves one of those methods onto a base class, or renames it,
fails here in the unit tests, not only later in the benchmark. The tracer
also counts the pairs each query answers (``len(result)``); the pairs counted
at the query boundary must equal the simulator calls a run charges, in
process and against a served simulator.
"""

import importlib.util
import json
import os
import sys

import pytest

from promptuq import (TaskConfig, experiment_config_from_dict, make_synthetic_task,
                      run_experiment)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_point_is_defined_directly_on_its_owner():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.CLIENT_POINTS + tracing.SERVER_POINTS
               if attr not in vars(owner)]
    assert not missing, f"trace points not defined on their owner: {missing}"


TINY_TASK = {"subspace_dim": 4, "prompt_dim": 16, "feature_dim": 4, "classes": 2,
             "hidden": 8, "n_train": 8, "n_test": 8, "n_ood": 8, "ood_shift": 2.0,
             "seed": 3}
TINY_PARAMS = {
    "abc_smc": {"sample_count": 4, "smc_iterations": 3},
    "point_cmaes": {"population_size": 4, "max_generations": 3},
    "gfvi": {"population_size": 4, "max_generations": 2, "mc_samples": 3,
             "sample_count": 5},
    "rejection_abc": {"sample_count": 4, "epsilon": 0.6, "max_draws": 5000},
}
# At seed 1 ABC-SMC starts at tolerance 1/8 and stops after iteration one;
# seed 7 starts at 1/2 and runs all three.
TINY_SEEDS = {"abc_smc": 7}


@pytest.fixture(scope="module")
def served_task(tmp_path_factory):
    """Task file and NDJSON splits of TINY_TASK for a ``promptuq serve`` child."""
    directory = tmp_path_factory.mktemp("served")
    task = make_synthetic_task(TaskConfig(**TINY_TASK))
    splits = {"train": (task.train.X, task.train.y), "test": (task.test.X, task.test.y),
              "near_ood": (task.near_ood, None), "far_ood": (task.far_ood, None)}
    paths = {}
    for name, (xs, ys) in splits.items():
        paths[name] = str(directory / f"{name}.ndjson")
        with open(paths[name], "w", encoding="utf-8") as fh:
            for i, x in enumerate(xs):
                record = {"x": [float(v) for v in x]}
                if ys is not None:
                    record["y"] = int(ys[i])
                fh.write(json.dumps(record) + "\n")
    task_path = directory / "task.json"
    task_path.write_text(json.dumps(TINY_TASK))
    return {"endpoint": {"argv": [sys.executable, "-m", "promptuq", "serve",
                                  "--task", str(task_path)]},
            "prior": {"dim": TINY_TASK["subspace_dim"], "sigma": 50.0},
            "datasets": paths}


@pytest.mark.parametrize("served", [False, True], ids=["in_process", "served"])
@pytest.mark.parametrize("method", sorted(TINY_PARAMS))
def test_traced_query_pairs_equal_simulator_calls(served_task, tmp_path, method, served):
    tracing = load_tracing()
    config = experiment_config_from_dict({
        "task": served_task if served else TINY_TASK, "method": method,
        "seed": TINY_SEEDS.get(method, 1), "params": TINY_PARAMS[method]})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_experiment(config, str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    counts = tracing.layer_metrics(tracer.spans, 0)
    calls = report.summary["simulator_calls"]
    assert calls > 0
    assert counts["blackbox.pairs"] + counts["protocol.pairs"] == calls
    assert (counts["protocol.pairs"] > 0) == served
