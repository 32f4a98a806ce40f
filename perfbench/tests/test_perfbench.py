"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at the tiny scale through the real
command, untraced and traced, and check each named metric and its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import promptuq.predictive  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


@pytest.mark.parametrize("key", ["ece", "sim_calls"])
def test_wrong_reference_value_fails_the_gate(key, tmp_path, monkeypatch):
    for name in ("predictive_from_logits", "predictive_from_labels"):
        monkeypatch.setattr(promptuq.predictive, name, getattr(promptuq.predictive, name))
    reference = worker.load_reference()
    reference["tiny"]["infer_labels"]["rejection_abc"][key] += 1
    ctx = worker.make_context(workloads.build("infer_labels", "tiny"), str(tmp_path),
                              reference)
    result = worker.measure(ctx, seed=5, seconds=0)
    assert result["failed"] == 1
    assert result["attempted"] == len(ctx.workload.experiments) * worker.MIN_ITERATIONS
    assert any(key in p and "reference" in p for p in result["problems"])
    assert set(result["metrics"]) == set(metrics.END_TO_END) - {"setup_s"}
    assert result["metrics"]["pass_rate"] < 1.0


def test_compare_reports_each_differing_value():
    values = {"sim_calls": 10, **{k: 0.5 for k in checks.QUALITY}}
    assert checks.compare(values, dict(values), "reference") == []
    shifted = {**values, "sim_calls": 11, "ece": 0.5 + 1e-6}
    problems = checks.compare(values, shifted, "in-process")
    assert len(problems) == 2
    assert all("in-process" in p for p in problems)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "infer_logits", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _Owner:
    @staticmethod
    def outer(tracer_inner, n):
        tracer_inner(n)
        return list(range(n))

    @staticmethod
    def inner(n):
        return list(range(n))


def test_tracer_self_time_opaque_spans_and_uninstall():
    original_outer, original_inner = vars(_Owner)["outer"], vars(_Owner)["inner"]
    tracer = tracing.Tracer()
    tracer.install([(_Owner, "inner", "layer.inner", tracing._rows, False),
                    (_Owner, "outer", "layer.outer", tracing._rows, True)])
    try:
        _Owner.outer(_Owner.inner, 3)   # inner runs under an opaque span: untraced
        with tracer.span("root"):
            _Owner.inner(4)
    finally:
        tracer.uninstall()
    assert vars(_Owner)["outer"] is original_outer
    assert vars(_Owner)["inner"] is original_inner
    names = [s.name for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "root"]
    outer, inner, root = tracer.spans
    assert outer.n == 3 and inner.n == 4 and inner.parent is root
    assert root.self_time == pytest.approx(root.duration - inner.duration)
    assert tracing.layer_metrics(tracer.spans, 0)["experiment.artifact_bytes"] == 0
