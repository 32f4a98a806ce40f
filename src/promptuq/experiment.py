"""Experiment orchestration: config validation, method dispatch, reporting.

Each method is one row of the private ``_REGISTRY``: its library config
(fields and defaults are its JSON ``params`` keys and defaults, and its
``__post_init__`` holds the range checks), its runner, and its access regime,
which picks its simulator and predictive path. The parser checks JSON shape
and types; ``ExperimentConfig.__post_init__`` holds every rule relating its
fields, and ``ExternalTaskSpec.__post_init__`` every rule on an endpoint, so a
config built in code fails as its JSON twin does.

Every run is a pure function of (config, seed): the task is rebuilt from its
config, methods consume named substreams of the experiment seed, and all
artifacts (summary JSON, posterior NDJSON, trace and curve CSVs) are written with
deterministic formatting so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import estimators, predictive, uqeval
from .abc_smc import RejectionConfig, SmcConfig, abc_smc, rejection_abc
from .blackbox import MODES, LabeledSet, TaskConfig, make_synthetic_task
from .errors import ConfigError, check_keys, config_from_dict
from .prompt_space import PriorSpec
from .protocol import ExternalSimulator

EVAL_CALIBRATION = "calibration"
EVAL_SELECTIVE = "selective"
EVAL_NEAR_OOD = "near_ood"
EVAL_FAR_OOD = "far_ood"
EVALUATIONS = (EVAL_CALIBRATION, EVAL_SELECTIVE, EVAL_NEAR_OOD, EVAL_FAR_OOD)
SPLITS = ("train", "test", EVAL_NEAR_OOD, EVAL_FAR_OOD)


def splits_read(evaluation) -> tuple[str, ...]:
    """What a run reads: train, test for any evaluation, near_ood and far_ood for those."""
    return tuple(name for name in SPLITS if name == "train"
                 or (name == "test" and evaluation) or name in evaluation)


@dataclass(frozen=True)
class ExternalTaskSpec:
    """Where to reach a conforming simulator process and what data to use:
    ``argv`` to spawn it, or ``host`` and ``port`` to connect to it, never both."""

    argv: tuple[str, ...] | None
    host: str | None
    port: int | None
    prior: PriorSpec
    datasets: dict[str, str]  # split name -> ndjson path

    def __post_init__(self):
        given = [value is not None for value in (self.argv, self.host, self.port)]
        if given not in ([True, False, False], [False, True, True]):
            raise ConfigError("task.endpoint", "need argv, or host and port, never both")
        if self.argv is not None and not (isinstance(self.argv, tuple) and self.argv
                                          and all(isinstance(arg, str) for arg in self.argv)):
            raise ConfigError("task.endpoint.argv", "must be a nonempty list of strings")
        if self.host is not None and not isinstance(self.host, str):
            raise ConfigError("task.endpoint.host", "must be a string")
        if self.port is not None and not (type(self.port) is int and 0 <= self.port <= 65535):
            raise ConfigError("task.endpoint.port", "must be an integer in 0..65535")


@dataclass
class ExperimentConfig:
    """One run; building it checks the seed, the task type, evaluations, ``predictive_mode``
    against the regime, the ``params`` class, and an external task's splits."""

    task: TaskConfig | ExternalTaskSpec
    method: str
    seed: int
    params: object  # the method's config, e.g. an SmcConfig
    evaluation: tuple[str, ...] = EVALUATIONS
    predictive_mode: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError("method",
                              f"unknown method {self.method!r}; choose from {METHODS}")
        config_class, regime, _ = _REGISTRY[self.method]
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if not isinstance(self.task, (TaskConfig, ExternalTaskSpec)):
            raise ConfigError("task", "must be a TaskConfig or an ExternalTaskSpec")
        if any(name not in EVALUATIONS for name in self.evaluation):
            raise ConfigError("evaluation", f"must be drawn from {EVALUATIONS}")
        modes = MODES if regime == "logits" else ("labels",)
        if self.predictive_mode not in (None, *modes):
            raise ConfigError("predictive_mode", f"{self.method} observes {regime}, so it "
                                                 f"takes one of {modes}")
        if type(self.params) is not config_class:
            raise ConfigError("params", f"{self.method} takes {config_class.__name__}")
        if isinstance(self.task, ExternalTaskSpec):
            check_keys(self.task.datasets, SPLITS, "task.datasets",
                       splits_read(self.evaluation))

    def resolved_sample_count(self) -> int:
        return self.params.sample_count


def external_task_from_dict(payload: dict) -> ExternalTaskSpec:
    check_keys(payload, {"endpoint", "prior", "datasets"}, "task",
               ("endpoint", "prior", "datasets"))
    endpoint = check_keys(payload["endpoint"], {"argv", "host", "port"}, "task.endpoint")
    argv = endpoint.get("argv")
    prior = config_from_dict(PriorSpec, payload["prior"], "task.prior")
    datasets = payload["datasets"]
    if not (isinstance(datasets, dict)
            and all(isinstance(path, str) for path in datasets.values())):
        raise ConfigError("task.datasets", "must be an object naming a file per split")
    return ExternalTaskSpec(argv=tuple(argv) if isinstance(argv, list) else argv,
                            host=endpoint.get("host"), port=endpoint.get("port"),
                            prior=prior, datasets=dict(datasets))


def experiment_config_from_dict(payload: dict) -> ExperimentConfig:
    check_keys(payload, {"task", "method", "seed", "params", "evaluation", "predictive_mode"},
               "", ("method", "seed", "task"))
    evaluation = payload.get("evaluation", EVALUATIONS)
    if not isinstance(evaluation, (list, tuple)):
        raise ConfigError("evaluation", f"must be a list drawn from {EVALUATIONS}")

    task = payload["task"]
    if isinstance(task, dict) and "endpoint" in task:
        task = external_task_from_dict(task)
    else:
        task = config_from_dict(TaskConfig, task, "task")
    method, params = payload["method"], payload.get("params", {})
    if method in METHODS:  # ExperimentConfig refuses an unknown one
        params = config_from_dict(_REGISTRY[method].config, params, "params")
    return ExperimentConfig(task=task, method=method, seed=payload["seed"],
                            evaluation=tuple(evaluation),
                            predictive_mode=payload.get("predictive_mode"), params=params)


def compare_configs_from_dict(payload: dict) -> list[ExperimentConfig]:
    """One config per ``methods`` entry; the task, seed and evaluation are shared."""
    check_keys(payload, {"task", "seed", "evaluation", "methods"}, "", ("methods",))
    methods = payload["methods"]
    if not (isinstance(methods, list) and methods
            and all(isinstance(spec, dict) for spec in methods)):
        raise ConfigError("methods", "must be a nonempty list of objects")
    shared = {key: payload[key] for key in ("task", "seed", "evaluation") if key in payload}
    entry_keys = {"method", "params", "predictive_mode"}
    configs = []
    for i, spec in enumerate(methods):
        check_keys(spec, entry_keys, f"methods[{i}]")
        try:
            configs.append(experiment_config_from_dict({**shared, **spec}))
        except ConfigError as exc:
            if exc.field.split(".")[0] not in entry_keys:  # a shared field
                raise
            raise ConfigError(f"methods[{i}].{exc.field}", exc.message) from exc
    return configs


def load_labeled_ndjson(path) -> LabeledSet:
    """Records {"x": [...], "y": int}; y may be omitted for unlabeled OOD rows.

    Raises OSError if the file cannot be read and ValueError if it is malformed.
    """
    xs, ys = [], []
    for number, record in estimators.ndjson_records(path):
        x, y = record.get("x"), record.get("y", -1)
        if not (isinstance(x, list) and all(map(estimators.is_json_number, x))
                and type(y) is int):
            raise ValueError(f"line {number}: need {{\"x\": [numbers], \"y\": int}}")
        xs.append(x)
        ys.append(y)
    try:
        data = LabeledSet(np.array(xs, dtype=float), np.array(ys, dtype=np.int64))
    except OverflowError as exc:  # a label beyond int64
        raise ValueError(f"number out of range: {exc}") from exc
    if data.X.ndim != 2 or data.X.size == 0 or not np.isfinite(data.X).all():
        raise ValueError("need one or more records with equal-length finite x rows")
    return data


def _open_context(config: ExperimentConfig) -> tuple[object, PriorSpec,
                                                     dict[str, LabeledSet]]:
    """The run's simulator, prior and the splits_read of the run (OOD rows
    have y = -1); the caller closes the simulator."""
    task = config.task
    names = splits_read(config.evaluation)
    if isinstance(task, TaskConfig):
        built = make_synthetic_task(task)
        sim = built.simulator(allow_logits=_REGISTRY[config.method].regime == "logits")
        return sim, built.prior, {name: built.split(name) for name in names}
    splits = {}
    for name in names:
        path = task.datasets[name]
        try:
            splits[name] = load_labeled_ndjson(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"task.datasets.{name}", f"{path}: {exc}") from exc
    if task.argv is not None:
        sim = ExternalSimulator.spawn(list(task.argv))
    else:
        sim = ExternalSimulator.connect(task.host, task.port)
    try:
        if _REGISTRY[config.method].regime == "logits" and "logits" not in sim.modes:
            raise ConfigError("method", f"{config.method} needs logits; the server hides them")
        if task.prior.dim != sim.subspace_dim:
            raise ConfigError("task.prior.dim", f"is {task.prior.dim}, but the simulator's "
                                                f"subspace dimension is {sim.subspace_dim}")
        for name, split in splits.items():
            if split.X.shape[1] != sim.feature_dim:
                raise ConfigError(f"task.datasets.{name}",
                                  f"rows have {split.X.shape[1]} features, the "
                                  f"simulator's feature_dim is {sim.feature_dim}")
            if name in ("train", "test") and not ((split.y >= 0)
                                                  & (split.y < sim.classes)).all():
                raise ConfigError(f"task.datasets.{name}",
                                  f"every row needs a label y in [0, {sim.classes})")
    except ConfigError:
        sim.close()
        raise
    return sim, task.prior, splits


class _Method(NamedTuple):
    config: type
    regime: str  # "logits" or "labels": what the simulator may reveal
    run: Callable[..., estimators.PosteriorEnsemble]  # (sim, prior, train, params, seed)


# Runners look inference functions up at call time, so patching them works.
_REGISTRY = {
    "point_cmaes": _Method(estimators.EsConfig, "logits",
                           lambda *run: estimators.point_estimate(*run)),
    "ensembles": _Method(estimators.EnsembleConfig, "logits",
                         lambda *run: estimators.ensemble_tune(*run)),
    "gfvi": _Method(estimators.GfviConfig, "logits", lambda *run: estimators.gfvi_tune(*run)),
    "rejection_abc": _Method(RejectionConfig, "labels", lambda *run: rejection_abc(*run)),
    "abc_smc": _Method(SmcConfig, "labels", lambda *run: abc_smc(*run)),
}
METHODS = tuple(_REGISTRY)


# Every file a run can write into its out_dir; other files there are left alone.
RUN_FILES = ("summary.json", "posterior.ndjson", "trace.csv") + tuple(
    f"curve_{block}_{score}.csv"
    for block in (EVAL_SELECTIVE, EVAL_NEAR_OOD, EVAL_FAR_OOD) for score in uqeval.SCORES)


def save_curves(curves: dict, out_dir: str, block: str, files: dict[str, str]) -> None:
    """Each score's curve to ``curve_<block>_<score>.csv``, its path into ``files``.

    Equal curves are formatted once: a curve whose risks have the same dtype
    and bits as an earlier one's gets a copy of that file, byte-identical to
    what ``uqeval.save_curve_csv`` writes for it alone. With two classes both
    scores rank the rows alike, so a block's two curves are usually equal."""
    written: dict[tuple[str, bytes], str] = {}  # (dtype, bits) of risks -> its file
    for score, curve in curves.items():
        name = f"curve_{block}_{score}"
        path = files[name] = os.path.join(out_dir, f"{name}.csv")
        key = (curve.risks.dtype.str, curve.risks.tobytes())
        if key in written:
            shutil.copyfile(written[key], path)
        else:
            uqeval.save_curve_csv(curve, path)
            written[key] = path


@dataclass
class ExperimentReport:
    summary: dict
    files: dict[str, str] = field(default_factory=dict)


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentReport:
    sim, prior, splits = _open_context(config)  # checks the data files before out_dir is made
    files: dict[str, str] = {}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in RUN_FILES:  # no file of an earlier run stays beside this run's
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        ensemble = _REGISTRY[config.method].run(sim, prior, splits["train"],
                                                config.params, config.seed)

        posterior_path = os.path.join(out_dir, "posterior.ndjson")
        estimators.save_ensemble(ensemble, posterior_path)
        files["posterior"] = posterior_path
        if ensemble.trace:
            files["trace"] = os.path.join(out_dir, "trace.csv")
            with open(files["trace"], "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(ensemble.trace)
                writer.writerows(zip(*ensemble.trace.values()))

        summary: dict = {
            "method": config.method,
            "seed": config.seed,
            "posterior": {
                "size": ensemble.size,
                "provenance": ensemble.provenance,
                "diagnostics": {k: float(v) for k, v in
                                sorted(ensemble.diagnostics.items())},
            },
        }
        if isinstance(config.task, TaskConfig):
            summary["task"] = asdict(config.task)

        # looked up per run, so a hook on the predictive module sees every table
        if (config.predictive_mode or _REGISTRY[config.method].regime) == "logits":
            predict = predictive.predictive_from_logits
        else:
            predict = predictive.predictive_from_labels
        tables = {name: predict(ensemble, sim, split.X)
                  for name, split in splits.items() if name != "train"}
        if EVAL_CALIBRATION in config.evaluation or EVAL_SELECTIVE in config.evaluation:
            block, curves = uqeval.selective_classification_eval(tables["test"].probs,
                                                                 splits["test"].y)
            summary["accuracy"], ece = block.pop("accuracy"), block.pop("ece")
            if EVAL_CALIBRATION in config.evaluation:
                summary["ece"] = ece
            if EVAL_SELECTIVE in config.evaluation:
                summary[EVAL_SELECTIVE] = block
                save_curves(curves, out_dir, EVAL_SELECTIVE, files)
        for name in (EVAL_NEAR_OOD, EVAL_FAR_OOD):
            if name in tables:
                summary[name], curves = uqeval.ood_detection_eval(tables["test"].probs,
                                                                  tables[name].probs)
                save_curves(curves, out_dir, name, files)

        summary["simulator_calls"] = sim.budget.used
        summary_path = os.path.join(out_dir, "summary.json")
        uqeval.save_summary_json(summary, summary_path)
        files["summary"] = summary_path
        return ExperimentReport(summary=summary, files=files)
    finally:
        sim.close()


def compare_methods(configs: list[ExperimentConfig], out_dir: str) -> list[dict]:
    """Run several methods on one task and tabulate the headline metrics."""
    if not configs:
        raise ConfigError("configs", "need at least one experiment")
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if cfg.task != first.task:
            raise ConfigError(f"configs[{i}].task", "all experiments must share the task")
        if cfg.seed != first.seed:
            raise ConfigError(f"configs[{i}].seed", "all experiments must share the seed")

    rows = []
    for index, cfg in enumerate(configs):
        run_dir = os.path.join(out_dir, f"{index:02d}_{cfg.method}")
        report = run_experiment(cfg, run_dir).summary
        row = {"method": cfg.method,
               "accuracy": report.get("accuracy"),
               "ece": report.get("ece")}
        for block in (EVAL_SELECTIVE, EVAL_NEAR_OOD, EVAL_FAR_OOD):
            data = report.get(block, {})
            for score in uqeval.SCORES:
                row[f"{block}_aurrrc_{score}"] = data.get(f"aurrrc_{score}")
            row[f"{block}_lower_bound"] = data.get("lower_bound")
        rows.append(row)

    os.makedirs(out_dir, exist_ok=True)
    uqeval.save_summary_json(rows, os.path.join(out_dir, "compare.json"))
    with open(os.path.join(out_dir, "compare.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # floats as repr, None as ""
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    return rows
