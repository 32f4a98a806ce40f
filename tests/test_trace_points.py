"""The benchmark's tracer wraps each traced method at ``vars(owner)[attr]``.

A refactor that moves one of those methods onto a base class, or renames it,
fails here in the unit tests, not only later in the benchmark. The tracer
also counts the pairs each query answers (``len(result)``); the pairs counted
at the query boundary must equal the simulator calls a run charges, in
process and against a served simulator.
"""

import importlib.util
import os

import pytest

from conftest import TINY_PARAMS, TINY_SEEDS, TINY_TASK
from promptuq import experiment_config_from_dict, run_experiment

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
