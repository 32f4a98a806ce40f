"""Command-line entry points.

Subcommands: task, tune, predict, eval, compare, lower-bound, serve.
Exit codes: 0 success, 2 config error, 3 budget, stagnation or numerical
breakdown, 4 simulator or protocol error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import estimators, predictive, uqeval
from .blackbox import MODES, TaskConfig, make_synthetic_task
from .errors import (AccessDeniedError, BudgetExhaustedError, ConfigError,
                     DegenerateWeightsError, EvaluationError, NumericalBreakdownError,
                     ProtocolError, StagnationError, config_from_dict)
from .experiment import (SPLITS, compare_configs_from_dict, compare_methods,
                         experiment_config_from_dict, run_experiment, save_curves)
from .prompt_space import sample_prior
from .protocol import serve_stdio, serve_tcp


def _finite_number(text: str) -> float:
    """JSON's number grammar has no NaN or Infinity, and a float must fit."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def _load_json(path, option: str):
    """The JSON object in ``path``; a config error naming ``option`` otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(option, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError; deep nesting
        raise ConfigError(option, f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(option, f"{path} must hold a JSON object")
    return data


@contextlib.contextmanager
def _oserror_names(option: str):
    """An OSError in the block, an output that cannot be written or a port
    that cannot be bound, is a config error naming ``option``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(option, str(exc)) from exc


def _load_task(path, option: str = "task") -> TaskConfig:
    return config_from_dict(TaskConfig, _load_json(path, option), "task")


def cmd_task(args) -> int:
    cfg = _load_task(args.config, "config")
    task = make_synthetic_task(cfg)
    if args.out:
        path = os.path.join(args.out, "task.json")
        with _oserror_names("out"):
            os.makedirs(args.out, exist_ok=True)
            uqeval.save_summary_json(asdict(cfg), path)
        print(f"wrote {path}")
    if args.inspect:
        sim = task.simulator()
        rng = np.random.default_rng(cfg.seed)
        labels = sim.query_labels(sample_prior(task.prior, 20, rng), task.train.X)
        chance = np.mean(np.mean(labels.reshape(20, -1) != task.train.y, axis=1))
        print(f"train: {len(task.train)} items, "
              f"class counts {np.bincount(task.train.y, minlength=cfg.classes).tolist()}")
        print(f"test:  {len(task.test)} items, "
              f"class counts {np.bincount(task.test.y, minlength=cfg.classes).tolist()}")
        print(f"ood:   {len(task.near_ood)} near + {len(task.far_ood)} far inputs")
        print(f"mean train error of 20 prior draws: {chance:.4f}")
    return 0


def cmd_tune(args) -> int:
    config = experiment_config_from_dict(_load_json(args.config, "config"))
    with _oserror_names("out"):  # the run converts its reads and simulator I/O itself
        report = run_experiment(config, args.out)
    print(f"wrote {report.files['summary']}")
    for key in ("accuracy", "ece"):
        if key in report.summary:
            print(f"{key}: {report.summary[key]:.4f}")
    print(f"simulator calls: {report.summary['simulator_calls']}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_task(args.task)
    task = make_synthetic_task(cfg)
    try:
        ensemble = estimators.load_ensemble(args.posterior)
    except (OSError, ValueError) as exc:
        raise ConfigError("posterior", f"cannot load {args.posterior}: {exc}") from exc
    if ensemble.samples.shape[1] != task.prior.dim:
        raise ConfigError("posterior", f"z has {ensemble.samples.shape[1]} entries, "
                                       f"the task's prior dim is {task.prior.dim}")
    sim = task.simulator(allow_logits=(args.mode == "logits"))
    inputs = task.split(args.split).X
    if args.seed < 0:
        raise ConfigError("seed", "must be a non-negative integer")
    if args.mode == "logits":
        table = predictive.predictive_from_logits(ensemble, sim, inputs)
    else:
        rng = np.random.default_rng(args.seed) if args.decode == "sample" else None
        table = predictive.predictive_from_labels(ensemble, sim, inputs, rng)
    with _oserror_names("out"):
        predictive.save_predictive_csv(table, args.out)
    print(f"wrote {args.out} ({len(table.probs)} rows, {table.classes} classes)")
    return 0


def _load_table(path, option: str) -> predictive.PredictiveTable:
    try:
        return predictive.load_predictive_csv(path)
    except (OSError, ValueError, StopIteration) as exc:  # StopIteration: no header
        raise ConfigError(option, f"cannot load {path}: {exc}") from exc


def cmd_eval(args) -> int:
    table = _load_table(args.pred, "pred")
    if args.pred_ood:
        ood_table = _load_table(args.pred_ood, "pred_ood")
        if ood_table.classes != table.classes:
            raise ConfigError("pred_ood", f"{args.pred_ood} has {ood_table.classes} classes, "
                                          f"{args.pred} has {table.classes}")
        summary, curves = uqeval.ood_detection_eval(table.probs, ood_table.probs)
    else:
        if not args.task:
            raise ConfigError("task", "selective evaluation needs --task for labels")
        cfg = _load_task(args.task)
        if table.classes != cfg.classes:
            raise ConfigError("pred", f"{args.pred} has {table.classes} classes, "
                                      f"the task has {cfg.classes}")
        labels = make_synthetic_task(cfg).split(args.split).y
        if len(labels) != len(table.probs):
            raise ConfigError("split", f"{args.split} has {len(labels)} labels but "
                                       f"{args.pred} has {len(table.probs)} rows")
        summary, curves = uqeval.selective_classification_eval(table.probs, labels)
    path = os.path.join(args.out, "eval.json")
    with _oserror_names("out"):
        os.makedirs(args.out, exist_ok=True)
        save_curves(curves, args.out, "ood" if args.pred_ood else "selective", {})
        uqeval.save_summary_json(summary, path)
    print(f"wrote {path}")
    for key, value in sorted(summary.items()):
        print(f"{key}: {value:.6f}")
    return 0


def cmd_compare(args) -> int:
    configs = compare_configs_from_dict(_load_json(args.config, "config"))
    with _oserror_names("out"):
        rows = compare_methods(configs, args.out)
    headers = list(rows[0].keys())
    print("\t".join(headers))
    for row in rows:
        print("\t".join("" if row[h] is None
                        else f"{row[h]:.4f}" if isinstance(row[h], float)
                        else str(row[h]) for h in headers))
    return 0


def _load_flags(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError("flags", f"cannot read {path}: {exc}") from exc
    if not lines or not set(lines) <= {"0", "1"}:
        raise ConfigError("flags", f"{path} must hold one 0 or 1 per line, at least one")
    return np.array(lines) == "1"


def cmd_lower_bound(args) -> int:
    if args.flags:
        flags = _load_flags(args.flags)
    elif args.n_id is not None and args.n_ood is not None:
        if min(args.n_id, args.n_ood) < 0 or args.n_id + args.n_ood == 0:
            raise ConfigError("n_id", "--n-id and --n-ood must be non-negative "
                                      "with a positive sum")
        flags = np.concatenate([np.zeros(args.n_id, dtype=bool),
                                np.ones(args.n_ood, dtype=bool)])
    else:
        raise ConfigError("flags", "need --flags FILE or --n-id N --n-ood M")
    value = uqeval.oracle_lower_bound(flags)
    if args.out:
        curve = uqeval.risk_rejection_curve(np.where(flags, 100.0, 0.0), flags)
        with _oserror_names("out"):
            uqeval.save_curve_csv(curve, args.out)
        print(f"wrote {args.out}")
    print(f"lower bound: {value:.6f}")
    return 0


def cmd_serve(args) -> int:
    if args.tcp:  # checked before the task build, which can take a while
        host, _, port = args.tcp.rpartition(":")
        if not (port.isascii() and port.isdigit() and int(port) <= 65535):
            raise ConfigError("tcp", f"need HOST:PORT with PORT in 0..65535, got {args.tcp!r}")
    task = make_synthetic_task(_load_task(args.task))
    sim = task.simulator(allow_logits=not args.labels_only)
    if args.tcp:
        with _oserror_names("tcp"):  # the bind; connections fail in their own threads
            # the bound address, its port chosen by the system for PORT 0
            serve_tcp(sim, host or "127.0.0.1", int(port),
                      ready_callback=lambda address: print("%s:%d" % address, flush=True))
    else:
        serve_stdio(sim)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptuq",
        description="Posterior inference over black-box prompt parameters "
                    "and uncertainty evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("task", help="generate or inspect a synthetic task")
    p.add_argument("--config", required=True, help="task config JSON")
    p.add_argument("--out", help="directory for task.json")
    p.add_argument("--inspect", action="store_true")
    p.set_defaults(func=cmd_task)

    p = sub.add_parser("tune", help="run one inference method end to end")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="predictive table from a saved posterior")
    p.add_argument("--task", required=True, help="task config JSON")
    p.add_argument("--posterior", required=True, help="posterior NDJSON")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--mode", default="logits", choices=MODES)
    p.add_argument("--decode", default="argmax", choices=["argmax", "sample"])
    p.add_argument("--seed", type=int, default=0, help="seed for sample decode")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metrics from predictive CSVs")
    p.add_argument("--pred", required=True, help="predictive CSV (ID rows)")
    p.add_argument("--pred-ood", help="predictive CSV of OOD rows (OOD evaluation)")
    p.add_argument("--task", help="task config JSON (labels for selective eval)")
    p.add_argument("--split", default="test", choices=SPLITS[:2])  # the labeled ones
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run several methods on one task")
    p.add_argument("--config", required=True, help="comparison config JSON")
    p.add_argument("--out", default="compare_out", help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lower-bound", help="oracle risk-rejection lower bound")
    p.add_argument("--flags", help="file with one 0/1 flag per line")
    p.add_argument("--n-id", type=int, help="count of in-distribution items")
    p.add_argument("--n-ood", type=int, help="count of OOD items")
    p.add_argument("--out", help="optional curve CSV")
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("serve", help="serve the built-in simulator over the protocol")
    p.add_argument("--task", required=True, help="task config JSON")
    p.add_argument("--labels-only", action="store_true")
    p.add_argument("--tcp", help="HOST:PORT to serve over TCP instead of stdio; "
                                 "prints the bound HOST:PORT once listening")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhaustedError, StagnationError, EvaluationError,
            NumericalBreakdownError, DegenerateWeightsError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, AccessDeniedError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
