import copy
import csv
import inspect
import json
import os
import re
import socket
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import promptuq
from conftest import TINY_PARAMS, TINY_SEEDS, TINY_TASK
from promptuq import EnsembleConfig, EsConfig, GfviConfig, RejectionConfig, SmcConfig
from promptuq.artifacts import load_labeled_ndjson
from promptuq.blackbox import TaskConfig, make_synthetic_task
from promptuq.cli import main
from promptuq.errors import (BudgetExhaustedError, ConfigError, NumericalBreakdownError,
                             StagnationError)
from promptuq.experiment import (EVALUATIONS, METHODS, ExperimentConfig, ExternalTaskSpec,
                                 compare_configs_from_dict, compare_methods,
                                 experiment_config_from_dict, run_experiment)
from promptuq.prompt_space import PriorSpec

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
SMALL_TASK = {"subspace_dim": 4, "prompt_dim": 32, "feature_dim": 8,
              "classes": 2, "hidden": 16, "n_train": 16, "n_test": 24,
              "n_ood": 16, "ood_shift": 2.0, "seed": 21}


def payload(method, seed=3, **params):
    return {"task": dict(SMALL_TASK), "method": method, "seed": seed,
            "params": params}


def read_artifacts(out_dir):
    data = {}
    for path in sorted(out_dir.iterdir()):
        data[path.name] = path.read_bytes()
    return data


def test_run_experiment_byte_identical(tmp_path):
    config = experiment_config_from_dict(
        payload("abc_smc", sample_count=20, smc_iterations=3))
    first = run_experiment(config, str(tmp_path / "a"))
    second = run_experiment(config, str(tmp_path / "b"))
    assert first.summary == second.summary
    a = read_artifacts(tmp_path / "a")
    b = read_artifacts(tmp_path / "b")
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name


def test_run_experiment_point_call_accounting(tmp_path):
    config = experiment_config_from_dict(
        payload("point_cmaes", population_size=6, max_generations=10))
    report = run_experiment(config, str(tmp_path / "run"))
    tuning = 6 * 10 * SMALL_TASK["n_train"]
    prediction = SMALL_TASK["n_test"] + 2 * SMALL_TASK["n_ood"]
    assert report.summary["simulator_calls"] == tuning + prediction
    assert report.summary["posterior"]["size"] == 1
    assert report.summary["accuracy"] >= 0.0
    assert set(report.summary["selective"]) == {"aurrrc_entropy", "aurrrc_maxp",
                                                "lower_bound"}


def test_run_experiment_default_smc_particle_count(tmp_path):
    config = experiment_config_from_dict(
        {"task": dict(SMALL_TASK), "method": "abc_smc", "seed": 1,
         "params": {"smc_iterations": 2}, "evaluation": ["calibration"]})
    report = run_experiment(config, str(tmp_path / "run"))
    assert report.summary["posterior"]["size"] == 100


def test_run_experiment_trace_not_accumulated(tmp_path):
    config = experiment_config_from_dict(
        payload("abc_smc", sample_count=10, smc_iterations=2))
    out = tmp_path / "run"
    first = run_experiment(config, str(out))
    trace_once = (out / "trace.csv").read_bytes()
    run_experiment(config, str(out))
    assert (out / "trace.csv").read_bytes() == trace_once


def test_run_experiment_removes_an_earlier_runs_files(tmp_path):
    # a calibration-only rejection ABC run writes no trace and no curve, so none
    # of the ABC-SMC run's may stay beside its summary; other files stay
    out = tmp_path / "run"
    run_experiment(experiment_config_from_dict(
        payload("abc_smc", sample_count=10, smc_iterations=2)), str(out))
    (out / "notes.txt").write_text("kept")
    run_experiment(experiment_config_from_dict(
        {**payload("rejection_abc", sample_count=4, epsilon=0.6),
         "evaluation": ["calibration"]}), str(out))
    assert sorted(path.name for path in out.iterdir()) == [
        "notes.txt", "posterior.ndjson", "summary.json"]


def test_point_cmaes_trace_csv(tmp_path):
    config = experiment_config_from_dict(
        {**payload("point_cmaes", population_size=6, max_generations=4),
         "evaluation": []})
    report = run_experiment(config, str(tmp_path / "run"))
    lines = (tmp_path / "run" / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "generation,best_loss,step_size"
    assert len(lines) == 5
    assert report.files["trace"] == str(tmp_path / "run" / "trace.csv")


def test_ensembles_trace_has_member_column(tmp_path):
    config = experiment_config_from_dict(
        {**payload("ensembles", sample_count=3, population_size=4, max_generations=5),
         "evaluation": []})
    run_experiment(config, str(tmp_path / "run"))
    with open(tmp_path / "run" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["member", "generation", "best_loss", "step_size"]
    assert [int(r["member"]) for r in rows] == [k for k in range(3) for _ in range(5)]
    assert [int(r["generation"]) for r in rows] == list(range(1, 6)) * 3


def test_rejection_abc_writes_no_trace(tmp_path):
    config = experiment_config_from_dict(
        {**payload("rejection_abc", sample_count=4, epsilon=0.6), "evaluation": []})
    report = run_experiment(config, str(tmp_path / "run"))
    assert "trace" not in report.files
    assert not (tmp_path / "run" / "trace.csv").exists()


def test_config_validation_field_paths():
    with pytest.raises(ConfigError, match="method"):
        experiment_config_from_dict({"task": SMALL_TASK, "method": "sgd", "seed": 1})
    with pytest.raises(ConfigError, match="seed"):
        experiment_config_from_dict({"task": SMALL_TASK, "method": "gfvi"})
    with pytest.raises(ConfigError, match="params.mc_samples"):
        experiment_config_from_dict(payload("point_cmaes", mc_samples=4))
    with pytest.raises(ConfigError, match="evaluation"):
        experiment_config_from_dict({**payload("gfvi"), "evaluation": ["nope"]})


def test_abc_method_rejects_logits_predictive_mode():
    bad = {**payload("abc_smc"), "predictive_mode": "logits"}
    with pytest.raises(ConfigError, match="predictive_mode"):
        experiment_config_from_dict(bad)
    # likelihood methods may choose either path
    ok = {**payload("gfvi"), "predictive_mode": "labels"}
    assert experiment_config_from_dict(ok).predictive_mode == "labels"


def test_compare_methods_identical_rows_and_shared_lower_bound(tmp_path):
    config_a = experiment_config_from_dict(
        payload("point_cmaes", population_size=6, max_generations=8))
    config_b = experiment_config_from_dict(
        payload("point_cmaes", population_size=6, max_generations=8))
    rows = compare_methods([config_a, config_b], str(tmp_path / "cmp"))
    assert rows[0] == rows[1]
    assert rows[0]["selective_lower_bound"] == rows[1]["selective_lower_bound"]
    assert (tmp_path / "cmp" / "compare.csv").exists()
    assert (tmp_path / "cmp" / "compare.json").exists()


def test_compare_writes_the_trace_of_each_method_that_has_one(tmp_path, capsys):
    config = write_json(tmp_path / "compare.json", {
        "task": SMALL_TASK, "seed": 3, "evaluation": [],
        "methods": [{"method": "point_cmaes",
                     "params": {"population_size": 4, "max_generations": 3}},
                    {"method": "rejection_abc", "params": {"sample_count": 4, "epsilon": 0.6}},
                    {"method": "abc_smc", "params": {"sample_count": 10, "smc_iterations": 2}}]})
    assert main(["compare", "--config", config, "--out", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    assert (tmp_path / "cmp" / "00_point_cmaes" / "trace.csv").read_text().startswith(
        "generation,best_loss,step_size")
    assert not (tmp_path / "cmp" / "01_rejection_abc" / "trace.csv").exists()
    assert (tmp_path / "cmp" / "02_abc_smc" / "trace.csv").read_text().startswith(
        "iteration,epsilon,ess,total_attempts,simulator_calls")


def test_compare_methods_rejects_mismatched_tasks(tmp_path):
    config_a = experiment_config_from_dict(payload("point_cmaes"))
    other = payload("point_cmaes")
    other["task"]["seed"] = 99
    config_b = experiment_config_from_dict(other)
    with pytest.raises(ConfigError, match="share the task"):
        compare_methods([config_a, config_b], str(tmp_path / "cmp"))


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_task_tune_predict_eval_pipeline(tmp_path, capsys):
    task_path = write_json(tmp_path / "task.json", SMALL_TASK)
    exp_path = write_json(tmp_path / "exp.json",
                          payload("ensembles", sample_count=3,
                                  population_size=6, max_generations=8))

    assert main(["task", "--config", task_path, "--out", str(tmp_path / "t"),
                 "--inspect"]) == 0
    assert main(["tune", "--config", exp_path, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "summary.json").exists()
    assert (tmp_path / "run" / "trace.csv").exists()  # every run writes its trace

    pred_csv = str(tmp_path / "pred.csv")
    assert main(["predict", "--task", task_path,
                 "--posterior", str(tmp_path / "run" / "posterior.ndjson"),
                 "--split", "test", "--mode", "logits", "--out", pred_csv]) == 0
    assert main(["eval", "--pred", pred_csv, "--task", task_path,
                 "--out", str(tmp_path / "eval")]) == 0
    evaluated = json.loads((tmp_path / "eval" / "eval.json").read_text())
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert evaluated == {**summary["selective"], "accuracy": summary["accuracy"],
                         "ece": summary["ece"]}
    for score in promptuq.uqeval.SCORES:
        name = f"curve_selective_{score}.csv"
        assert (tmp_path / "eval" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    capsys.readouterr()


def _curves_alone(curves_by_block, out_dir):
    """The bytes ``save_curve_csv`` writes for each curve alone, by file name."""
    os.makedirs(out_dir)
    expected = {}
    for block, curves in curves_by_block.items():
        for score, curve in curves.items():
            path = os.path.join(out_dir, f"curve_{block}_{score}.csv")
            promptuq.artifacts.save_curve_csv(curve, path)
            with open(path, "rb") as fh:
                expected[os.path.basename(path)] = fh.read()
    return expected


def _curve(risks):
    risks = np.asarray(risks)
    return promptuq.uqeval.RiskRejectionCurve(risks, float(risks.mean()))


@pytest.mark.parametrize("risks,formatted", [
    ([[0.5, 0.25, 0.0], [0.5, 0.25, 0.0]], 1),     # equal: formatted once
    ([[0.5, 0.25, 0.0], [0.75, 0.5, 0.0]], 2),     # unequal
    ([[0.5, 0.25, 0.0], [0.5, 0.25, 1e-300]], 2),  # only the last risk differs
    ([[0.5, 0.0], [0.5, -0.0]], 2),                # equal numbers, different reprs
])
def test_save_curves_writes_each_curve_as_it_would_alone(tmp_path, monkeypatch, risks,
                                                         formatted):
    curves = {score: _curve(r) for score, r in zip(promptuq.uqeval.SCORES, risks)}
    expected = _curves_alone({"selective": curves}, str(tmp_path / "alone"))
    calls = []
    save_curve_csv = promptuq.artifacts.save_curve_csv
    monkeypatch.setattr(promptuq.artifacts, "save_curve_csv",
                        lambda curve, path: calls.append(path) or save_curve_csv(curve, path))
    files = {}
    out_dir = tmp_path / "grouped"
    out_dir.mkdir()
    promptuq.artifacts.save_curves(curves, str(out_dir), "selective", files)
    assert len(calls) == formatted
    assert list(files) == [f"curve_selective_{score}" for score in promptuq.uqeval.SCORES]
    assert {name: (out_dir / name).read_bytes() for name in expected} == expected


@pytest.mark.parametrize("classes", [2, 5])
def test_run_curve_files_equal_each_curve_written_alone(tmp_path, monkeypatch, classes):
    # selective, then near- and far-OOD, in the order run_experiment evaluates them
    curves_by_block = {}
    for name in ("selective_classification_eval", "ood_detection_eval"):
        evaluate = getattr(promptuq.uqeval, name)

        def recording(*args, evaluate=evaluate):
            metrics, curves = evaluate(*args)
            curves_by_block[("selective", "near_ood", "far_ood")[len(curves_by_block)]] = curves
            return metrics, curves
        monkeypatch.setattr(promptuq.uqeval, name, recording)
    config = experiment_config_from_dict(
        {**payload("ensembles", sample_count=3, population_size=6, max_generations=4),
         "task": {**SMALL_TASK, "classes": classes}})
    report = run_experiment(config, str(tmp_path / "run"))
    expected = _curves_alone(curves_by_block, str(tmp_path / "alone"))
    assert len(expected) == 6
    assert {name: (tmp_path / "run" / name).read_bytes() for name in expected} == expected
    assert {os.path.basename(report.files[name[:-4]]) for name in expected} == set(expected)
    entropy, maxp = (expected[f"curve_far_ood_{score}.csv"] for score in ("entropy", "maxp"))
    assert (entropy == maxp) == (classes == 2)


@pytest.mark.parametrize("classes", [2, 5])
def test_cli_eval_curve_files_equal_each_curve_written_alone(tmp_path, capsys, classes):
    rng = np.random.default_rng(classes)
    paths = []
    for name, rows in (("id", 40), ("ood", 24)):
        probs = rng.dirichlet(np.ones(classes), size=rows)
        paths.append(str(tmp_path / f"{name}.csv"))
        promptuq.artifacts.save_predictive_csv(promptuq.predictive.PredictiveTable(probs),
                                               paths[-1])
    assert main(["eval", "--pred", paths[0], "--pred-ood", paths[1],
                 "--out", str(tmp_path / "eval")]) == 0
    tables = [promptuq.artifacts.load_predictive_csv(path).probs for path in paths]
    _, curves = promptuq.uqeval.ood_detection_eval(*tables)
    expected = _curves_alone({"ood": curves}, str(tmp_path / "alone"))
    assert {name: (tmp_path / "eval" / name).read_bytes() for name in expected} == expected
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad_exp = write_json(tmp_path / "bad.json",
                         {**payload("abc_smc"), "predictive_mode": "logits"})
    assert main(["tune", "--config", bad_exp, "--out", str(tmp_path / "x")]) == 2

    starved = write_json(
        tmp_path / "starved.json",
        payload("rejection_abc", sample_count=50, epsilon=0.03, max_draws=20))
    assert main(["tune", "--config", starved, "--out", str(tmp_path / "y")]) == 3

    # numerical breakdowns are exit 3 too, not a traceback, and so are allocations
    # numpy refuses at once (these ask for tebibytes)
    tiny = {**SMALL_TASK, "prompt_dim": 16, "n_ood": 8, "seed": 1}
    capsys.readouterr()
    for method, params in (("point_cmaes", {"sigma0": 1e308}),
                           ("gfvi", {"search_step": 1000}),
                           ("point_cmaes", {"population_size": 10 ** 13}),
                           ("ensembles", {"sample_count": 10 ** 13}),
                           ("gfvi", {"mc_samples": 10 ** 13})):
        config = write_json(tmp_path / f"{method}.json", {
            "task": tiny, "method": method, "seed": 0,
            "params": {"population_size": 4, "max_generations": 3, **params}})
        assert main(["tune", "--config", config, "--out", str(tmp_path / method)]) == 3
        assert capsys.readouterr().err.startswith("tune: "), params
    huge_task = write_json(tmp_path / "huge_task.json", {**tiny, "n_test": 10 ** 13})
    for argv in (["task", "--config", huge_task],
                 ["lower-bound", "--n-id", str(10 ** 13), "--n-ood", "1"]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith(f"{argv[0]}: "), argv

    # JSON has no NaN or Infinity, and a task's numbers must stay finite
    for name, text in (("inf", json.dumps(payload("point_cmaes", sigma0=float("inf")))),
                       ("nan", json.dumps({**payload("point_cmaes"),
                                           "task": {**tiny, "ood_shift": float("nan")}})),
                       ("overflow", json.dumps(payload("point_cmaes")).replace(
                           '"ood_shift": 2.0', '"ood_shift": 1e400')),
                       ("far_ood", json.dumps({**payload("rejection_abc"),
                                               "task": {**tiny, "ood_shift": 1e308}}))):
        (tmp_path / f"{name}.json").write_text(text)
        assert main(["tune", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 2
        assert "config error" in capsys.readouterr().err

    external = {
        "task": {"endpoint": {"argv": [sys.executable, "-c",
                                       "print('{\"protocol\": 99}')"]},
                 "prior": {"dim": 4, "sigma": 50.0},
                 "datasets": {"train": str(tmp_path / "train.ndjson")}},
        "method": "rejection_abc", "seed": 1, "evaluation": [],
    }
    broken_server = write_json(tmp_path / "broken.json", external)
    (tmp_path / "train.ndjson").write_text(
        "\n".join(json.dumps({"x": [0.0] * 8, "y": 0}) for _ in range(4)))
    assert main(["tune", "--config", broken_server,
                 "--out", str(tmp_path / "z")]) == 4

    # a server that hangs up after the first request it reads
    external["task"]["endpoint"] = {"argv": [sys.executable, "-c", (
        "import json, sys; print(json.dumps({'protocol': 3, 'classes': 2, 'feature_dim': 8, "
        "'prompt_dim': 32, 'subspace_dim': 4, 'modes': ['logits', 'labels']}), flush=True); "
        "sys.stdin.readline()")]}
    hang_up = write_json(tmp_path / "hangup.json", external)
    capsys.readouterr()
    assert main(["tune", "--config", hang_up, "--out", str(tmp_path / "u")]) == 4
    assert capsys.readouterr().err == "tune: server closed the connection\n"

    # an endpoint that cannot be started or reached is a simulator error
    external["task"]["endpoint"] = {"argv": ["no-such-simulator-binary"]}
    missing_binary = write_json(tmp_path / "nobinary.json", external)
    assert main(["tune", "--config", missing_binary,
                 "--out", str(tmp_path / "w")]) == 4
    with socket.socket() as probe:  # a port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    external["task"]["endpoint"] = {"host": "127.0.0.1", "port": free_port}
    unreachable = write_json(tmp_path / "unreachable.json", external)
    assert main(["tune", "--config", unreachable,
                 "--out", str(tmp_path / "v")]) == 4

    # dataset files are checked before any simulator process starts
    marker = tmp_path / "started"
    spawn_marker = {"argv": [sys.executable, "-c", f"open({str(marker)!r}, 'w')"]}
    for name, text in (("missing", None), ("garbage", "not json\n"),
                       ("ragged", '{"x": [0.0]}\n{"x": [0.0, 1.0]}\n'),
                       ("labels", '{"x": [0.0], "y": "a"}\n'), ("empty", ""),
                       ("nested", "[" * 100_000 + "\n"),
                       ("huge", '{"x": [1%s], "y": 0}\n' % ("0" * 400)),
                       ("infinite", '{"x": [0.0], "y": 0}\n{"x": [Infinity], "y": 0}\n'),
                       ("list", "[0.0, 1.0]\n")):
        path = tmp_path / f"{name}.ndjson"
        if text is not None:
            path.write_text(text)
        config = write_json(tmp_path / f"{name}.json", {
            "task": {"endpoint": spawn_marker, "prior": {"dim": 4, "sigma": 50.0},
                     "datasets": {"train": str(tmp_path / "train.ndjson"),
                                  "test": str(path)}},
            "method": "rejection_abc", "seed": 1, "evaluation": ["calibration"]})
        assert main(["tune", "--config", config, "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "task.datasets.test" in err
        if name == "infinite":  # refused as it is parsed, naming its line
            assert "line 2: Infinity is not a finite JSON number" in err
        assert not (tmp_path / name).exists()
    assert not marker.exists()

    # rows of every split the run reads must have the served task's feature_dim,
    # and train and test labels must lie in its [0, classes)
    task_path = write_json(tmp_path / "task.json", SMALL_TASK)
    serve = {"argv": [sys.executable, "-m", "promptuq", "serve", "--task", task_path]}
    labeled = tmp_path / "labeled.ndjson"
    labeled.write_text(json.dumps({"x": [0.0] * 8, "y": 0}) + "\n")
    for i, (split, record) in enumerate((
            ("test", {"x": [0.0] * 8, "y": 7}), ("train", {"x": [0.0] * 8}),
            ("train", {"x": [0.0] * 2, "y": 0}), ("far_ood", {"x": [0.0] * 2}),
            ("train", {"x": [0.0] * 8, "y": 2 ** 64}))):
        bad = tmp_path / f"bad_{i}.ndjson"
        bad.write_text(json.dumps(record) + "\n")
        datasets = {name: str(labeled) for name in ("train", "test", "near_ood", "far_ood")}
        config = write_json(tmp_path / f"rows_{i}.json", {
            "task": {"endpoint": serve, "prior": {"dim": 4, "sigma": 50.0},
                     "datasets": {**datasets, split: str(bad)}},
            "method": "rejection_abc", "seed": 1})
        assert main(["tune", "--config", config, "--out", str(tmp_path / f"rows_{i}")]) == 2
        assert f"config error: task.datasets.{split}: " in capsys.readouterr().err
        assert not (tmp_path / f"rows_{i}").exists()

    # selective evaluation needs one label per predictive row
    exp_path_point = write_json(tmp_path / "point.json", payload(
        "point_cmaes", population_size=4, max_generations=2))
    assert main(["tune", "--config", exp_path_point, "--out", str(tmp_path / "point")]) == 0
    pred_csv = str(tmp_path / "pred.csv")
    assert main(["predict", "--task", task_path, "--split", "test", "--out", pred_csv,
                 "--posterior", str(tmp_path / "point" / "posterior.ndjson")]) == 0
    assert main(["eval", "--pred", pred_csv, "--task", task_path, "--split", "train",
                 "--out", str(tmp_path / "eval")]) == 2
    assert not (tmp_path / "eval").exists()

    # unreadable posterior or predictive files are config errors
    short_z = tmp_path / "short.ndjson"
    short_z.write_text('{"index": 0, "weight": 1.0, "z": [0.0, 0.0]}\n')
    nan_z = tmp_path / "nan_z.ndjson"
    nan_z.write_text('{"index": 0, "weight": 1.0, "z": [NaN, 0, 0, 0]}\n')
    # a z of nested lists, whose second axis matches the prior dim; a bool weight;
    # an integer beyond the float range
    nested_z = tmp_path / "nested_z.ndjson"
    nested_z.write_text('{"index": 0, "weight": 1.0, "z": [[0.5], [0.5], [0.5], [0.5]]}\n')
    bool_weight = tmp_path / "bool_weight.ndjson"
    bool_weight.write_text('{"index": 0, "weight": true, "z": [0.5, 0.5, 0.5, 0.5]}\n')
    huge_z = tmp_path / "huge_z.ndjson"
    huge_z.write_text('{"index": 0, "weight": 1.0, "z": [1%s, 0, 0, 0]}\n' % ("0" * 400))
    for posterior, mode in ((tmp_path / "missing.ndjson", "logits"), (short_z, "logits"),
                            (nan_z, "logits"), (nan_z, "labels"), (nested_z, "logits"),
                            (bool_weight, "logits"), (huge_z, "logits")):
        assert main(["predict", "--task", task_path, "--posterior", str(posterior),
                     "--mode", mode, "--out", pred_csv]) == 2
        err = capsys.readouterr().err
        assert "posterior" in err
        if posterior == nan_z:
            assert "line 1" in err
    assert main(["eval", "--pred", str(tmp_path / "missing.csv"), "--task", task_path,
                 "--out", str(tmp_path / "eval")]) == 2
    assert main(["eval", "--pred", pred_csv, "--pred-ood", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "eval")]) == 2
    # a non-finite probability row is no distribution
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("p_0,p_1,p_2,predicted\n0.5,0.5,0.0,0\nnan,nan,0,0\n")
    ood_csv = tmp_path / "ood.csv"
    ood_csv.write_text("p_0,p_1,p_2,predicted\n0.2,0.3,0.5,2\n")
    assert main(["eval", "--pred", str(nan_csv), "--pred-ood", str(ood_csv),
                 "--out", str(tmp_path / "eval")]) == 2
    assert "pred: cannot load" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()
    # only a table save_predictive_csv could have written loads: its header, its
    # field count, its argmax column and fields float() takes but repr never writes
    for name, text in (("swapped", "p_1,p_0,predicted\n0.9,0.1,1\n"),
                       ("wrong_predicted", "p_0,p_1,predicted\n0.9,0.1,1\n"),
                       ("no_predicted", "p_0,p_1\n0.9,0.1\n"),
                       ("underscore", "p_0,p_1,predicted\n0.4_5,0.55,1\n"),
                       ("padded", "p_0,p_1,predicted\n0.45, 0.55 ,1\n"),
                       ("huge_field", "p_0,p_1,predicted\n0.9,0.1,%s\n" % ("0" * 200_000))):
        table = tmp_path / f"{name}.csv"
        table.write_text(text)
        assert main(["eval", "--pred", str(table), "--pred-ood", str(table),
                     "--out", str(tmp_path / "eval")]) == 2
        assert "config error: pred: cannot load" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()
    # class counts must agree: the OOD table with the ID table, the ID table with the task
    two_csv = tmp_path / "two.csv"
    two_csv.write_text("p_0,p_1,predicted\n0.5,0.5,0\n")
    three_csv = tmp_path / "three.csv"
    three_csv.write_text("p_0,p_1,p_2,predicted\n" + "0.2,0.3,0.5,2\n" * SMALL_TASK["n_test"])
    for argv, field in ((["--pred", str(two_csv), "--pred-ood", str(ood_csv)], "pred_ood"),
                        (["--pred", str(three_csv), "--task", task_path], "pred")):
        assert main(["eval", *argv, "--out", str(tmp_path / "eval")]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    # an output that cannot be written, or a port already bound, is a config error
    a_file = tmp_path / "task.json"
    missing_dir = tmp_path / "no-such-dir"
    posterior = str(tmp_path / "point" / "posterior.ndjson")
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        for argv, field in (
                (["lower-bound", "--n-id", "3", "--n-ood", "2",
                  "--out", str(missing_dir / "curve.csv")], "out"),
                (["predict", "--task", task_path, "--posterior", posterior,
                  "--out", str(missing_dir / "p.csv")], "out"),
                (["tune", "--config", exp_path_point, "--out", str(a_file)], "out"),
                (["eval", "--pred", pred_csv, "--task", task_path, "--out", str(a_file)],
                 "out"),
                (["task", "--config", task_path, "--out", str(a_file)], "out"),
                (["serve", "--task", task_path,
                  "--tcp", f"127.0.0.1:{busy.getsockname()[1]}"], "tcp")):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1, err
    assert not missing_dir.exists()

    # a task or config file that cannot be read, or holds no JSON object, names its option
    missing_json = str(tmp_path / "no-such-config.json")
    list_json = write_json(tmp_path / "array.json", [SMALL_TASK])
    for argv, field, message in (
            (["predict", "--task", missing_json, "--posterior", posterior,
              "--out", pred_csv], "task", "cannot read"),
            (["eval", "--pred", pred_csv, "--task", list_json,
              "--out", str(tmp_path / "eval")], "task", "must hold a JSON object"),
            (["eval", "--pred", pred_csv, "--out", str(tmp_path / "eval")], "task",
             "selective evaluation needs --task"),
            (["serve", "--task", list_json], "task", "must hold a JSON object"),
            (["task", "--config", missing_json], "config", "cannot read"),
            (["tune", "--config", list_json, "--out", str(tmp_path / "run")], "config",
             "must hold a JSON object")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and message in err, err


def test_cli_eval_takes_rows_within_the_table_tolerance(tmp_path, capsys):
    rounded = tmp_path / "rounded.csv"  # rows rounded to 7 digits sum to 1 - 1e-7
    rounded.write_text("p_0,p_1,p_2,predicted\n0.3333333,0.3333333,0.3333333,0\n"
                       "0.2,0.3,0.5,2\n")
    short = tmp_path / "short.csv"
    short.write_text("p_0,p_1,p_2,predicted\n0.2,0.2,0.2,0\n")
    assert main(["eval", "--pred", str(rounded), "--pred-ood", str(rounded),
                 "--out", str(tmp_path / "eval")]) == 0
    assert main(["eval", "--pred", str(short), "--pred-ood", str(rounded),
                 "--out", str(tmp_path / "short")]) == 2
    assert "not a probability vector" in capsys.readouterr().err


def test_cli_lower_bound_reproduces_rebuttal_value(tmp_path, capsys):
    assert main(["lower-bound", "--n-id", "5", "--n-ood", "5",
                 "--out", str(tmp_path / "curve.csv")]) == 0
    out = capsys.readouterr().out
    printed = float(out.strip().splitlines()[-1].split(":")[1])
    expected = np.mean([max(5 - k, 0) / (10 - k) for k in range(10)])
    assert printed == pytest.approx(expected, abs=1e-6)
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    k2 = lines[3].split(",")  # row for k=2
    assert float(k2[2]) == pytest.approx(0.375, abs=1e-12)


def test_cli_lower_bound_rejects_bad_input(tmp_path, capsys):
    files = {"empty": "", "blank": "\n \n", "word": "0\nx\n", "two": "0\n2\n",
             "float": "1.0\n", "latin1": b"0\n\xff\n"}
    for name, text in files.items():
        path = tmp_path / name
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    cases = [["--n-id", "-1", "--n-ood", "3"], ["--n-id", "3", "--n-ood", "-1"],
             ["--n-id", "0", "--n-ood", "0"], ["--flags", str(tmp_path / "missing")],
             ["--flags", str(tmp_path)], []]
    cases += [["--flags", str(tmp_path / name)] for name in files]
    for argv in cases:
        assert main(["lower-bound", *argv]) == 2, argv
        assert "config error" in capsys.readouterr().err


FLAG_LINES = (st.sampled_from(["0", "1", " 1 ", "", "2", "-1", "01", "1.0", "x"])
              | st.text(max_size=3))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(st.integers(-3, 20), st.integers(-3, 20))
       | st.none() | st.lists(FLAG_LINES, max_size=6))
def test_cli_lower_bound_exits_0_or_2(tmp_path_factory, capsys, case):
    """Counts, a missing file, or flag-file lines: exit 0 exactly when they
    describe a nonempty 0/1 sequence, else a config error."""
    path = tmp_path_factory.mktemp("flags") / "flags.txt"
    if isinstance(case, tuple):
        argv = ["--n-id", str(case[0]), "--n-ood", str(case[1])]
        valid = min(case) >= 0 and sum(case) > 0
    else:
        argv = ["--flags", str(path)]
        valid = False
        if case is not None:
            text = "\n".join(case)
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            flags = [line.strip() for line in lines if line.strip()]
            valid = bool(flags) and set(flags) <= {"0", "1"}
    assert main(["lower-bound", *argv]) == (0 if valid else 2)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_serve_rejects_bad_tcp_port(tmp_path, capsys):
    # only invalid ports: a valid one would start a blocking server
    task_path = write_json(tmp_path / "task.json", SMALL_TASK)
    for address in ("127.0.0.1:abc", ":99999", "127.0.0.1:-1", "127.0.0.1:", "localhost",
                    "127.0.0.1:65536"):
        assert main(["serve", "--task", task_path, "--tcp", address]) == 2, address
        assert "config error: tcp" in capsys.readouterr().err


def test_experiment_against_external_endpoint(tmp_path):
    task = make_synthetic_task(TaskConfig(**SMALL_TASK))
    train_path = tmp_path / "train.ndjson"
    test_path = tmp_path / "test.ndjson"
    with open(train_path, "w") as fh:
        for x, y in zip(task.train.X, task.train.y):
            fh.write(json.dumps({"x": list(x), "y": int(y)}) + "\n")
    with open(test_path, "w") as fh:
        for x, y in zip(task.test.X, task.test.y):
            fh.write(json.dumps({"x": list(x), "y": int(y)}) + "\n")
    task_json = write_json(tmp_path / "task.json", SMALL_TASK)

    config = experiment_config_from_dict({
        "task": {
            "endpoint": {"argv": [sys.executable, "-m", "promptuq", "serve",
                                  "--task", task_json]},
            "prior": {"dim": SMALL_TASK["subspace_dim"], "sigma": 50.0},
            # a split no evaluation reads is never opened
            "datasets": {"train": str(train_path), "test": str(test_path),
                         "far_ood": str(tmp_path / "missing.ndjson")},
        },
        "method": "rejection_abc", "seed": 5,
        "params": {"sample_count": 8, "epsilon": 0.6, "max_draws": 5000},
        "evaluation": ["calibration", "selective"],
    })
    report = run_experiment(config, str(tmp_path / "ext"))
    assert report.summary["posterior"]["size"] == 8
    assert 0.0 <= report.summary["accuracy"] <= 1.0

    loaded = load_labeled_ndjson(train_path)
    assert np.allclose(loaded.X, task.train.X)
    assert np.array_equal(loaded.y, task.train.y)


@pytest.mark.parametrize("row, code", [
    ([0.5 + 4e-7, 0.5], 0),  # within the tolerance of every probability table
    ([1.5, -0.5], 4),        # sums to 1, but a negative entry is a protocol error
])
def test_tune_against_server_with_edge_probability_rows(tmp_path, row, code):
    server = "\n".join([
        "import base64, json, struct, sys",
        "print(json.dumps({'protocol': 3, 'classes': 2, 'feature_dim': 8,"
        " 'prompt_dim': 32, 'subspace_dim': 4, 'modes': ['logits', 'labels']}),"
        " flush=True)",
        "sizes = []",
        "for line in sys.stdin:",
        "    request = json.loads(line)",
        "    if request.get('op') == 'register':",  # rows of 8 float64 features
        "        sizes.append(len(base64.b64decode(request['inputs'])) // 64)",
        "        answer = {'dataset': len(sizes) - 1}",
        "    else:",  # rows of 4 float64 entries of z
        "        pairs = len(base64.b64decode(request['zs'])) // 32 * sizes[request['dataset']]",
        f"        answer = {{'outputs': base64.b64encode(struct.pack('<2d', *{row!r}) * pairs)"
        ".decode()}",
        "    print(json.dumps({'id': request['id'], **answer}), flush=True)"])
    split = tmp_path / "split.ndjson"
    split.write_text("".join(json.dumps({"x": [0.1 * i] * 8, "y": i % 2}) + "\n"
                             for i in range(4)))
    config = write_json(tmp_path / "edge.json", {
        "task": {"endpoint": {"argv": [sys.executable, "-c", server]},
                 "prior": {"dim": 4, "sigma": 50.0},
                 "datasets": {"train": str(split), "test": str(split)}},
        "method": "point_cmaes", "seed": 1,
        "params": {"population_size": 2, "max_generations": 1},
        "evaluation": ["calibration", "selective"]})
    assert main(["tune", "--config", config, "--out", str(tmp_path / "out")]) == code


@pytest.mark.parametrize("serve_flags, extra_dim, method, field", [
    ([], 1, "rejection_abc", "task.prior.dim"),
    (["--labels-only"], 0, "point_cmaes", "method"),  # a logits method, a labels server
], ids=["prior_dim", "labels_only"])
def test_prior_dimension_that_differs_from_the_server_fails_at_connect(
        tmp_path, capsys, serve_flags, extra_dim, method, field):
    # the handshake is checked before anything is charged or out_dir is made,
    # and the spawned server is closed and reaped
    pid_file = tmp_path / "pid"
    task_path = write_json(tmp_path / "task.json", SMALL_TASK)
    server = (f"import os, sys; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
              "from promptuq.cli import main; "
              f"sys.exit(main(['serve', '--task', {task_path!r}, *{serve_flags!r}]))")
    split = tmp_path / "split.ndjson"
    split.write_text(json.dumps({"x": [0.0] * 8, "y": 0}) + "\n")
    config = write_json(tmp_path / "dim.json", {
        "task": {"endpoint": {"argv": [sys.executable, "-c", server]},
                 "prior": {"dim": SMALL_TASK["subspace_dim"] + extra_dim, "sigma": 50.0},
                 "datasets": {"train": str(split)}},
        "method": method, "seed": 1, "evaluation": []})
    assert main(["tune", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ProcessLookupError):  # closed and waited for, not a zombie
        os.kill(int(pid_file.read_text()), 0)


def test_default_sample_counts_per_method():
    counts = {method: experiment_config_from_dict(payload(method)).params.sample_count
              for method in METHODS}
    assert counts == {"point_cmaes": 1, "ensembles": 10, "gfvi": 100,
                      "rejection_abc": 100, "abc_smc": 100}


# the function each registry row runs, by the owner and name it looks up at call time
METHOD_FUNCTIONS = {"point_cmaes": (promptuq.estimators, "point_estimate"),
                    "ensembles": (promptuq.estimators, "ensemble_tune"),
                    "gfvi": (promptuq.estimators, "gfvi_tune"),
                    "rejection_abc": (promptuq.experiment, "rejection_abc"),
                    "abc_smc": (promptuq.experiment, "abc_smc")}


@pytest.mark.parametrize("method", METHODS)
def test_every_method_is_called_as_sim_prior_dataset_config_seed(monkeypatch, method):
    owner, name = METHOD_FUNCTIONS[method]
    assert list(inspect.signature(getattr(owner, name)).parameters)[:5] == [
        "sim", "prior", "dataset", "config", "seed"]
    # its registry row passes the run's arguments on as they are
    run = tuple(object() for _ in range(5))
    monkeypatch.setattr(owner, name, lambda *args: args)
    assert promptuq.experiment._REGISTRY[method].run(*run) == run


SPLITS = ["train", "test", "near_ood", "far_ood"]
EXTERNAL_TASK = {"endpoint": {"argv": ["simulator"]},
                 "prior": {"dim": 4, "sigma": 50.0},
                 "datasets": {name: f"{name}.ndjson" for name in SPLITS}}
COMPARE = {"task": SMALL_TASK, "seed": 3,
           "methods": [{"method": "point_cmaes"}, {"method": "gfvi", "parms": {}}]}


@pytest.mark.parametrize("config, field", [
    (payload("point_cmaes", population_size="20"), "params.population_size"),
    (payload("point_cmaes", max_generations=2.5), "params.max_generations"),
    (payload("point_cmaes", sigma0=-1), "params.sigma0"),
    (payload("gfvi", mc_samples=0), "params.mc_samples"),
    (payload("rejection_abc", epsilon=2.0), "params.epsilon"),
    (payload("rejection_abc", max_draws=0), "params.max_draws"),
    (payload("abc_smc", smc_iterations=0), "params.smc_iterations"),
    (payload("abc_smc", variance_floor=0), "params.variance_floor"),
    ({**payload("point_cmaes"), "seed": "x"}, "seed"),
    ({**payload("point_cmaes"), "params": [1]}, "params"),
    ({**payload("point_cmaes"), "evaluation": 5}, "evaluation"),
    ({**payload("point_cmaes"), "evaluation": "calibration"}, "evaluation: must be a list"),
    ({**payload("rejection_abc"),
      "task": {**EXTERNAL_TASK, "prior": {"dim": "a", "sigma": 50.0}}}, "task.prior.dim"),
    ({**payload("rejection_abc"), "task": {**EXTERNAL_TASK, "endpoint": "x"}},
     "task.endpoint"),
    ({**payload("point_cmaes"), "evalution": ["calibration"]}, "evalution"),
    ({**payload("point_cmaes"), "out": 5}, "out"),
    # a config with "methods" is run by compare
    (COMPARE, "methods[1].parms"),
    ({**COMPARE, "methods": [1]}, "methods"),
    ({**COMPARE, "methods": "ab"}, "methods"),
    ({**COMPARE, "methods": []}, "methods"),
    ({**COMPARE, "method": "gfvi"}, "method"),
    # an error inside a methods entry names the entry
    ({**COMPARE, "methods": [{"method": "point_cmaes"}, {"method": "sgd"}]},
     "methods[1].method"),
    ({**COMPARE, "methods": [{"method": "point_cmaes"},
                             {"method": "gfvi", "params": {"mc_samples": -1}}]},
     "methods[1].params.mc_samples"),
    # the prior variance sigma^2 must be a positive finite float
    ({**payload("abc_smc"), "task": {**SMALL_TASK, "prior_sigma": 1e-300}},
     "task.prior_sigma"),
    ({**payload("gfvi"), "task": {**SMALL_TASK, "prior_sigma": 1e300}},
     "task.prior_sigma"),
    ({**payload("rejection_abc"),
      "task": {**EXTERNAL_TASK, "prior": {"dim": 4, "sigma": 1e-300}}},
     "task.prior.sigma"),
    # an endpoint port takes the 0..65535 rule of `serve --tcp`
    ({**payload("rejection_abc"), "task": {
        **EXTERNAL_TASK, "endpoint": {"host": "127.0.0.1", "port": 70000}}},
     "task.endpoint.port"),
    ({**payload("rejection_abc"), "task": {
        **EXTERNAL_TASK, "endpoint": {"host": "127.0.0.1", "port": -1}}},
     "task.endpoint.port"),
    # an endpoint names argv, or host and port, never both
    ({**payload("rejection_abc"), "task": {
        **EXTERNAL_TASK, "endpoint": {"argv": ["simulator"], "host": 5}}},
     "task.endpoint"),
    ({**payload("rejection_abc"), "task": {
        **EXTERNAL_TASK, "endpoint": {"argv": ["simulator"], "host": "h", "port": 9}}},
     "task.endpoint"),
    # `tune --out` alone names the output directory
    ({**payload("point_cmaes"), "out": "dir"}, "out: unknown field"),
    # an endpoint host must be a string
    ({**payload("rejection_abc"), "task": {**EXTERNAL_TASK, "endpoint": {"host": 5, "port": 1}}},
     "task.endpoint.host"),
])
def test_cli_tune_malformed_config_exits_2(tmp_path, capsys, config, field):
    path = write_json(tmp_path / "exp.json", config)
    command = "compare" if "methods" in config else "tune"
    assert main([command, "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# one out-of-range value per task and prior key; a string is the wrong type for
# each, and a key without a default may not be left out
TASK_OUT_OF_RANGE = {"subspace_dim": 33, "prompt_dim": 0, "feature_dim": 0, "classes": 1,
                     "hidden": 0, "n_train": 0, "n_test": 0, "n_ood": -1,
                     "ood_shift": 1e308, "seed": -1, "prior_sigma": 1e-300,
                     "label_noise": 1.0, "pooled_dim": 0}
PRIOR_OUT_OF_RANGE = {"dim": 0, "sigma": 1e300}


def bad_key_cases(base, out_of_range, path, as_task=lambda obj: obj):
    for key, value in out_of_range.items():
        bad = {"range": {**base, key: value}, "type": {**base, key: "x"}}
        if key in base:
            bad["missing"] = {k: v for k, v in base.items() if k != key}
        for kind, obj in bad.items():
            yield pytest.param(as_task(obj), f"{path}.{key}", id=f"{path}.{key}-{kind}")


@pytest.mark.parametrize("task, field", [
    *bad_key_cases(SMALL_TASK, TASK_OUT_OF_RANGE, "task"),
    *bad_key_cases(EXTERNAL_TASK["prior"], PRIOR_OUT_OF_RANGE, "task.prior",
                   lambda prior: {**EXTERNAL_TASK, "prior": prior}),
])
def test_cli_names_each_bad_task_and_prior_key(tmp_path, capsys, task, field):
    config = write_json(tmp_path / "exp.json",
                        {"task": task, "method": "rejection_abc", "seed": 1})
    commands = [["tune", "--config", config, "--out", str(tmp_path / "run")]]
    if "endpoint" not in task:  # the task file of every other subcommand
        commands.append(["task", "--config", write_json(tmp_path / "task.json", task)])
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"config error: {field}: " in err
        assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("splits, evaluation, field", [
    (["train"], None, "task.datasets.test"),
    (["train"], ["calibration"], "task.datasets.test"),
    (["train", "test"], ["selective", "near_ood"], "task.datasets.near_ood"),
    (["train", "test", "near_ood"], None, "task.datasets.far_ood"),
    (["test"], [], "task.datasets.train"),
    # a split name no evaluation could read is refused, whatever the evaluation
    (["train", "valid"], [], "task.datasets.valid"),
    (["train", "test", "near_ood", "far_ood", "ood"], None, "task.datasets.ood"),
])
def test_a_split_the_run_needs_is_checked_before_anything_starts(
        tmp_path, capsys, splits, evaluation, field):
    started = tmp_path / "started"
    endpoint = {"argv": [sys.executable, "-c", f"open({str(started)!r}, 'w')"]}
    datasets = {name: f"{name}.ndjson" for name in splits}
    config = {"task": {"endpoint": endpoint, "prior": {"dim": 4, "sigma": 50.0},
                       "datasets": datasets},
              "method": "point_cmaes", "seed": 1}
    if evaluation is not None:
        config["evaluation"] = evaluation
    path = write_json(tmp_path / "exp.json", config)
    assert main(["tune", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    # the same config built in code is refused with the same field
    task = ExternalTaskSpec(argv=tuple(endpoint["argv"]), host=None, port=None,
                            prior=PriorSpec(dim=4, sigma=50.0), datasets=datasets)
    evaluation = {} if evaluation is None else {"evaluation": tuple(evaluation)}
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(ExperimentConfig(task=task, method="point_cmaes", seed=1,
                                        params=EsConfig(), **evaluation),
                       str(tmp_path / "run"))
    assert excinfo.value.field == field
    assert not started.exists()
    assert not (tmp_path / "run").exists()


def external_spec(**endpoint):
    """A function building an in-code external task with this endpoint."""
    return lambda: ExternalTaskSpec(**endpoint, prior=PriorSpec(dim=4, sigma=50.0),
                                    datasets=EXTERNAL_TASK["datasets"])


@pytest.mark.parametrize("edit, field", [
    ({"predictive_mode": "logits"}, "predictive_mode"),  # rejection_abc sees labels only
    ({"evaluation": ("calibration", "bogus")}, "evaluation"),
    ({"params": SmcConfig()}, "params"),
    # EnsembleConfig subclasses EsConfig, but point_cmaes takes EsConfig itself
    ({"method": "point_cmaes", "params": EnsembleConfig()}, "params"),
    ({"method": "sgd"}, "method"),
    ({"seed": -1}, "seed"),
    ({"task": dict(SMALL_TASK)}, "task"),
    # an endpoint names argv, or host and port, never both, as in JSON
    ({"task": external_spec(argv=None, host=None, port=None)}, "task.endpoint"),
    ({"task": external_spec(argv=("simulator",), host="127.0.0.1", port=9)},
     "task.endpoint"),
    ({"task": external_spec(argv=(), host=None, port=None)}, "task.endpoint.argv"),
    ({"task": external_spec(argv=None, host="127.0.0.1", port=70000)},
     "task.endpoint.port"),
])
def test_a_config_built_in_code_is_refused_before_inference(tmp_path, edit, field):
    config = experiment_config_from_dict(payload("rejection_abc", sample_count=4,
                                                 epsilon=0.6))
    with pytest.raises(ConfigError) as excinfo:  # a task spec is built here, if at all
        edit = {key: value() if callable(value) else value for key, value in edit.items()}
        run_experiment(replace(config, **edit), str(tmp_path / "run"))
    assert excinfo.value.field == field
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config_class, key, value", [
    (EsConfig, "population_size", 1), (EsConfig, "sigma0", -1.0),
    (EnsembleConfig, "sample_count", 0), (GfviConfig, "search_step", 0.0),
    (RejectionConfig, "epsilon", 1.5), (SmcConfig, "weight_scheme", "adaptive"),
])
def test_method_config_checks_name_the_bare_key(config_class, key, value):
    with pytest.raises(ConfigError) as excinfo:
        config_class(**{key: value})
    assert excinfo.value.field == key


# the per-method params keys documented in README.md
PARAMS = {"point_cmaes": ["population_size", "max_generations", "sigma0"],
          "ensembles": ["population_size", "max_generations", "sigma0", "sample_count"],
          "gfvi": ["population_size", "max_generations", "sample_count", "mc_samples",
                   "search_step"],
          "rejection_abc": ["sample_count", "epsilon", "max_draws"],
          "abc_smc": ["sample_count", "smc_iterations", "weight_scheme", "max_attempts",
                      "variance_floor"]}
PARAM_KEYS = sorted({key for keys in PARAMS.values() for key in keys})


def test_readme_params_table_matches_the_configs():
    with open(README, encoding="utf-8") as fh:
        rows = re.findall(r"^\| (\w+) +\| `(\w+)` +\| ([\w, ]+?) +\|$", fh.read(), re.M)
    assert {method: keys.split(", ") for method, _, keys in rows} == PARAMS
    for method, config_class, _ in rows:
        assert [f.name for f in fields(getattr(promptuq, config_class))] == PARAMS[method]



KNOWN_STRINGS = list(METHODS) + ["calibration", "selective", "near_ood", "far_ood",
                                 "logits", "labels", "importance", "uniform"]
TOP_KEYS = ["task", "method", "seed", "evaluation", "predictive_mode", "params", "out",
            "methods"]
KNOWN_KEYS = TOP_KEYS + list(SMALL_TASK) + list(EXTERNAL_TASK) + PARAM_KEYS
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(KNOWN_STRINGS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS), inner, max_size=4),
    max_leaves=8)
# in range for every numeric key; null is valid for the optional ones
in_range = st.none() | st.integers(2, 50) | st.floats(0.01, 1.0)
FIELD_PATHS = ([(key,) for key in TOP_KEYS]
               + [("task", key) for key in list(SMALL_TASK) + list(EXTERNAL_TASK)]
               + [("task", "endpoint", key) for key in ("argv", "host", "port")]
               + [("task", "prior", "dim"), ("task", "prior", "sigma")]
               + [("task", "datasets", name) for name in SPLITS + ["valid"]]
               + [("params", key) for key in PARAM_KEYS])
DELETE = object()


@st.composite
def edited_configs(draw):
    """A config for one method with params mostly in range, then up to two
    fields at any depth replaced by arbitrary JSON or deleted."""
    method = draw(st.sampled_from(METHODS))
    config = {"task": copy.deepcopy(draw(st.sampled_from([SMALL_TASK, EXTERNAL_TASK]))),
              "method": method, "seed": 3,
              "params": draw(st.dictionaries(st.sampled_from(PARAMS[method]),
                                             in_range | json_values, max_size=3))}
    for path in draw(st.lists(st.sampled_from(FIELD_PATHS), max_size=2)):
        value = draw(json_values | st.just(DELETE))
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if value is DELETE:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
    return config


@st.composite
def compare_configs(draw):
    """A valid compare payload (params are fuzzed by ``edited_configs``); then up
    to two keys of the payload or of an entry replaced by arbitrary JSON or deleted."""
    entries = [{"method": method} for method in draw(
        st.lists(st.sampled_from(METHODS), min_size=1, max_size=3))]
    payload = {"task": copy.deepcopy(draw(st.sampled_from([SMALL_TASK, EXTERNAL_TASK]))),
               "seed": 3, "methods": entries}
    for _ in range(draw(st.integers(0, 2))):
        parent = draw(st.sampled_from([payload] + entries))
        key = draw(st.sampled_from(TOP_KEYS))
        value = draw(json_values | st.just(DELETE))
        if value is DELETE:
            parent.pop(key, None)
        else:
            parent[key] = value
    return payload


@st.composite
def accepted_configs(draw):
    """A config the parser accepts: any method, task kind and evaluation."""
    return {"task": copy.deepcopy(draw(st.sampled_from([SMALL_TASK, EXTERNAL_TASK]))),
            "method": draw(st.sampled_from(METHODS)), "seed": 3,
            "evaluation": draw(st.lists(st.sampled_from(EVALUATIONS), unique=True))}


LABELS_METHODS = ("rejection_abc", "abc_smc")
CROSS_FIELD_RULES = ("evaluation", "predictive_mode", "missing split", "unknown split")


def break_one_rule(config, parsed, rule):
    """JSON ``config`` and a function building ``parsed``, its parsed twin,
    both with one cross-field rule broken, and the field the error names."""
    config = copy.deepcopy(config)
    if rule == "evaluation":
        config["evaluation"] = [*parsed.evaluation, "bogus"]
        return config, lambda: replace(parsed, evaluation=(*parsed.evaluation, "bogus")), rule
    if rule == "predictive_mode" or not isinstance(parsed.task, ExternalTaskSpec):
        mode = "logits" if parsed.method in LABELS_METHODS else "probs"
        config["predictive_mode"] = mode
        return config, lambda: replace(parsed, predictive_mode=mode), "predictive_mode"
    datasets = dict(parsed.task.datasets)
    name = "train" if rule == "missing split" else "valid"  # train is always read
    if rule == "missing split":
        del datasets[name]
    else:
        datasets[name] = "valid.ndjson"
    config["task"]["datasets"] = datasets
    return (config, lambda: replace(parsed, task=replace(parsed.task, datasets=datasets)),
            f"task.datasets.{name}")


@settings(max_examples=300, deadline=None)
@given(edited_configs() | compare_configs() | json_values | accepted_configs(),
       st.sampled_from(CROSS_FIELD_RULES))
def test_config_parser_accepts_or_raises_config_error(config, rule):
    """Whatever the parser accepts also builds in code; with one cross-field
    rule broken, the JSON config and its in-code twin name the same field."""
    compare = isinstance(config, dict) and "methods" in config
    try:
        parsed = (compare_configs_from_dict(config) if compare
                  else [experiment_config_from_dict(config)])
    except ConfigError:
        return
    entries = config["methods"] if compare else [config]
    assert len(parsed) == len(entries)
    if compare:
        assert set(config) <= {"task", "seed", "evaluation", "methods"}
        assert all(set(entry) <= {"method", "params", "predictive_mode"}
                   for entry in entries)
    else:
        assert set(config) <= set(TOP_KEYS) - {"methods"}
    for entry, cfg in zip(entries, parsed):
        assert set(entry.get("params", {})) <= set(PARAMS[cfg.method])
        assert cfg.params.sample_count >= 1
        assert ExperimentConfig(**vars(cfg)) == cfg
    if compare:
        return
    broken, build_in_code, field = break_one_rule(config, parsed[0], rule)
    for build in (lambda: experiment_config_from_dict(broken), build_in_code):
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert excinfo.value.field == field


# Extreme but JSON-valid numbers: float fields get any finite float or an
# integer beyond the float range; integer fields stay small enough to run fast.
extreme_floats = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e154, 8.9e307, 1e308])
                  | st.sampled_from([10 ** 400, -10 ** 400]))
small_ints = st.integers(-1, 4)
FUZZ_TASK = {"subspace_dim": 4, "prompt_dim": 16, "feature_dim": 8, "classes": 2,
             "hidden": 16, "n_train": 16, "n_test": 24, "n_ood": 8, "ood_shift": 2.0,
             "seed": 1}


@st.composite
def extreme_runs(draw):
    task = dict(FUZZ_TASK, n_train=draw(st.sampled_from([2, 16])))
    for key in draw(st.sets(st.sampled_from(["ood_shift", "prior_sigma", "label_noise"]))):
        task[key] = draw(extreme_floats)
    for key in draw(st.sets(st.sampled_from(["pooled_dim", "seed"]))):
        task[key] = draw(small_ints)
    method = draw(st.sampled_from(METHODS))
    params = {"population_size": 2, "max_generations": 2, "sample_count": 3,
              "mc_samples": 2, "max_draws": 50, "smc_iterations": 3, "max_attempts": 30}
    params = {key: value for key, value in params.items() if key in PARAMS[method]}
    for key in draw(st.sets(st.sampled_from(PARAMS[method]), max_size=3)):
        if key == "weight_scheme":
            params[key] = draw(st.sampled_from(["importance", "uniform"]))
        elif key in ("sigma0", "search_step", "epsilon", "variance_floor"):
            params[key] = draw(extreme_floats)
        else:
            params[key] = draw(small_ints)
    return ({"task": task, "method": method, "seed": draw(st.integers(0, 3)),
             "params": params}, draw(st.sampled_from(["logits", "labels"])),
            draw(st.sampled_from([-1, 0, 2 ** 64, 10 ** 30])))


# capsys is read once per example, so sharing it across examples is safe
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(extreme_runs())
# kernel variances near 1e308 once overflowed the importance weights
@example(({"task": dict(FUZZ_TASK, prior_sigma=1e154), "method": "abc_smc", "seed": 1,
           "params": {"sample_count": 3, "smc_iterations": 3, "max_attempts": 30}},
          "logits", 0))
def test_cli_exit_codes_hold_for_extreme_numbers(tmp_path_factory, capsys, run):
    config, mode, sample_seed = run
    tmp = tmp_path_factory.mktemp("extreme")
    exp_path = write_json(tmp / "exp.json", config)
    task_path = write_json(tmp / "task.json", config["task"])
    codes = [main(["tune", "--config", exp_path, "--out", str(tmp / "run")])]
    if codes[0] == 0:
        for split in ("test", "far_ood"):
            codes.append(main(["predict", "--task", task_path, "--split", split,
                               "--posterior", str(tmp / "run" / "posterior.ndjson"),
                               "--mode", mode, "--decode", "sample",
                               "--seed", str(sample_seed),
                               "--out", str(tmp / f"{split}.csv")]))
        codes.append(main(["eval", "--pred", str(tmp / "test.csv"), "--task", task_path,
                           "--out", str(tmp / "eval")]))
        codes.append(main(["eval", "--pred", str(tmp / "test.csv"),
                           "--pred-ood", str(tmp / "far_ood.csv"),
                           "--out", str(tmp / "eval_ood")]))
    assert set(codes) <= {0, 2, 3, 4}, codes
    assert "Traceback" not in capsys.readouterr().err


def test_a_search_that_diverges_past_the_float_range_exits_3(tmp_path, capsys):
    # a simulator refuses a non-finite z, so CMA-ES stops at such a population
    config = write_json(tmp_path / "exp.json", {
        "task": FUZZ_TASK, "method": "ensembles", "seed": 0,
        "params": {"sigma0": 8.9e307, "population_size": 2, "max_generations": 2,
                   "sample_count": 3}})
    assert main(["tune", "--config", config, "--out", str(tmp_path / "run")]) == 3
    assert "population is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["logits", "labels"])
def test_a_posterior_that_overflows_the_model_exits_3(tmp_path, capsys, mode):
    # a finite z whose logits are not finite is a numerical breakdown
    task = write_json(tmp_path / "task.json", FUZZ_TASK)
    posterior = tmp_path / "posterior.ndjson"
    posterior.write_text(json.dumps({"index": 0, "weight": 1.0,
                                     "z": [1e308] * FUZZ_TASK["subspace_dim"]}) + "\n")
    assert main(["predict", "--task", task, "--split", "test", "--posterior",
                 str(posterior), "--mode", mode, "--out", str(tmp_path / "p.csv")]) == 3
    assert "overflowed" in capsys.readouterr().err


# id: (method, seed, params, predictive_mode, the error both runs raise)
SERVED_CASES = {
    **{method: (method, TINY_SEEDS.get(method, 1), params, None, None)
       for method, params in TINY_PARAMS.items()},
    **{f"{method}-labels": (method, 1, TINY_PARAMS[method], "labels", None)
       for method in ("point_cmaes", "ensembles", "gfvi")},
    # the divergence of test_a_search_that_diverges_past_the_float_range_exits_3
    "ensembles-diverges": ("ensembles", 0, {"sigma0": 8.9e307, "population_size": 2,
                                            "max_generations": 2, "sample_count": 3},
                           None, NumericalBreakdownError),
    "abc_smc-stagnates": ("abc_smc", 7, {**TINY_PARAMS["abc_smc"], "max_attempts": 3},
                          None, StagnationError),
    # finite candidates whose logits are not: the model's own overflow message
    "point_cmaes-overflows": ("point_cmaes", 2, {"sigma0": 5e307, "population_size": 2,
                                                 "max_generations": 2},
                              None, NumericalBreakdownError),
    "rejection_abc-runs-out": ("rejection_abc", 1, {"sample_count": 4, "epsilon": 0.01,
                                                    "max_draws": 5},
                               None, BudgetExhaustedError),
}


@pytest.mark.parametrize("method, seed, params, mode, error", SERVED_CASES.values(),
                         ids=SERVED_CASES)
def test_served_runs_equal_in_process_runs_end_to_end(served_task, tmp_path, method, seed,
                                                      params, mode, error):
    # every artifact byte for byte, or the same error and the same files left
    # behind; only a built-in task's summary records its task block
    outcomes = []
    for task in (TINY_TASK, served_task):
        out = tmp_path / str(len(outcomes))
        payload = {"task": task, "method": method, "seed": seed, "params": params}
        if mode:
            payload["predictive_mode"] = mode
        try:
            run_experiment(experiment_config_from_dict(payload), str(out))
        except RuntimeError as exc:
            outcomes.append((type(exc), str(exc), sorted(os.listdir(out))))
            continue
        artifacts = read_artifacts(out)
        summary = json.loads(artifacts.pop("summary.json"))
        summary.pop("task", None)
        outcomes.append((None, summary, artifacts))
    assert outcomes[0][0] is error
    assert outcomes[0] == outcomes[1]
