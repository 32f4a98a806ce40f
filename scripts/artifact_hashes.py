#!/usr/bin/env python3
"""Hash every artifact of a fixed matrix of CLI runs.

The matrix runs `promptuq tune` for the five methods on three synthetic
tasks (2 classes; 5 classes with 4,096 test rows; 9 classes) under the
default evaluation. On the 2-class task it adds the evaluation subsets
below, for the methods that observe logits `predictive_mode: labels`, and a
wide ensemble (10 members, 100 generations).
On each task it then runs `promptuq predict` (logits on the test and far-OOD
splits, and the seeded sample decode of labels on the test split) and
`promptuq eval`, selective and OOD. One more `predict` runs the 5-class
ensemble on a copy of its task with 4,133 test rows, so the kernel's row
tiles, ragged tail included, are covered. Another sample-decodes the labels
of the 20-sample c9 GFVI posterior on the 64-row c9 test split, so a change
in how many samples share a predictive query is covered, seed draws
included. Last come `promptuq compare` of two methods on the 2-class task
and `promptuq lower-bound` with a curve, so every subcommand that writes
files is covered.

Everything is written under a temporary directory, which is the working
directory of the runs. One `sha256  path` line is printed per artifact, in
path order, with paths relative to that directory. A command's stdout counts
as the artifact `<its output>.stdout`. Reruns print the same lines, so diffing
the output of two checkouts shows whether a change keeps every artifact
byte-identical:

    PYTHONPATH=src python3 scripts/artifact_hashes.py > after.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from promptuq.cli import main as promptuq

TASKS = {
    "c2": {"subspace_dim": 4, "prompt_dim": 32, "feature_dim": 8, "classes": 2,
           "hidden": 16, "n_train": 16, "n_test": 24, "n_ood": 16, "ood_shift": 2.0,
           "seed": 21},
    "c5": {"subspace_dim": 4, "prompt_dim": 32, "feature_dim": 8, "classes": 5,
           "hidden": 16, "n_train": 24, "n_test": 4096, "n_ood": 64, "ood_shift": 3.0,
           "seed": 5},
    "c9": {"subspace_dim": 6, "prompt_dim": 48, "feature_dim": 12, "classes": 9,
           "hidden": 24, "n_train": 32, "n_test": 64, "n_ood": 32, "ood_shift": 2.0,
           "seed": 9, "label_noise": 0.1},
}
PARAMS = {
    "point_cmaes": {"population_size": 6, "max_generations": 8},
    "ensembles": {"sample_count": 3, "population_size": 6, "max_generations": 5},
    "gfvi": {"population_size": 6, "max_generations": 5, "sample_count": 20,
             "mc_samples": 4},
    "rejection_abc": {"sample_count": 10, "max_draws": 20_000},
    "abc_smc": {"sample_count": 20, "smc_iterations": 3},
}
LOGITS_METHODS = ("point_cmaes", "ensembles", "gfvi")
SUBSETS = {"calibration": ["calibration"], "selective": ["selective"],
           "near_ood": ["near_ood"], "far_ood_calibration": ["far_ood", "calibration"]}


def _write_json(path, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, output, hashes) -> None:
    """Run one CLI command; its stdout is hashed as ``<output>.stdout``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = promptuq(argv)
    if code != 0:
        sys.exit(f"promptuq {' '.join(argv)} exited {code}")
    hashes[f"{output}.stdout"] = _digest(buffer.getvalue().encode("utf-8"))


def _tune(name, task, method, hashes, params=None, **fields) -> None:
    config = _write_json(f"configs/{name}.json", {"task": task, "method": method,
                                                  "seed": 0, "params": params or PARAMS[method],
                                                  **fields})
    _run(["tune", "--config", config, "--out", f"runs/{name}"], f"runs/{name}", hashes)


def run_matrix() -> dict[str, str]:
    hashes: dict[str, str] = {}
    os.makedirs("configs")
    os.makedirs("pred")
    for label, task in TASKS.items():
        task_path = _write_json(f"configs/{label}_task.json", task)
        _run(["task", "--config", task_path, "--out", f"tasks/{label}"],
             f"tasks/{label}", hashes)
        for method in PARAMS:
            _tune(f"{label}_{method}", task, method, hashes)
        posterior = f"runs/{label}_ensembles/posterior.ndjson"
        for split in ("test", "far_ood"):
            _run(["predict", "--task", task_path, "--posterior", posterior,
                  "--split", split, "--out", f"pred/{label}_{split}.csv"],
                 f"pred/{label}_{split}.csv", hashes)
        _run(["predict", "--task", task_path, "--posterior", posterior,
              "--split", "test", "--mode", "labels", "--decode", "sample", "--seed", "3",
              "--out", f"pred/{label}_test_sampled.csv"],
             f"pred/{label}_test_sampled.csv", hashes)
        _run(["eval", "--pred", f"pred/{label}_test.csv", "--task", task_path,
              "--out", f"eval/{label}_selective"], f"eval/{label}_selective", hashes)
        _run(["eval", "--pred", f"pred/{label}_test.csv",
              "--pred-ood", f"pred/{label}_far_ood.csv",
              "--out", f"eval/{label}_ood"], f"eval/{label}_ood", hashes)
    tiled = _write_json("configs/c5_tiled_task.json", {**TASKS["c5"], "n_test": 4133})
    _run(["predict", "--task", tiled, "--posterior", "runs/c5_ensembles/posterior.ndjson",
          "--split", "test", "--out", "pred/c5_tiled_test.csv"],
         "pred/c5_tiled_test.csv", hashes)
    _run(["predict", "--task", "configs/c9_task.json",
          "--posterior", "runs/c9_gfvi/posterior.ndjson", "--split", "test",
          "--mode", "labels", "--decode", "sample", "--seed", "5",
          "--out", "pred/c9_gfvi_test_sampled.csv"], "pred/c9_gfvi_test_sampled.csv", hashes)
    for method in PARAMS:
        for subset, evaluation in SUBSETS.items():
            _tune(f"c2_{method}_{subset}", TASKS["c2"], method, hashes,
                  evaluation=evaluation)
    for method in LOGITS_METHODS:
        _tune(f"c2_{method}_labels", TASKS["c2"], method, hashes,
              predictive_mode="labels")
    _tune("c2_ensembles_wide", TASKS["c2"], "ensembles", hashes,
          params={**PARAMS["ensembles"], "sample_count": 10, "max_generations": 100})
    compare = _write_json("configs/c2_compare.json", {
        "task": TASKS["c2"], "seed": 0,
        "methods": [{"method": method, "params": PARAMS[method]}
                    for method in ("point_cmaes", "rejection_abc")]})
    _run(["compare", "--config", compare, "--out", "compare/c2"], "compare/c2", hashes)
    os.makedirs("bounds")
    _run(["lower-bound", "--n-id", "5", "--n-ood", "5", "--out", "bounds/curve.csv"],
         "bounds/curve.csv", hashes)
    for top in ("tasks", "runs", "pred", "eval", "compare", "bounds"):
        for root, _, files in os.walk(top):
            for name in files:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    hashes[path] = _digest(fh.read())
    return hashes


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        previous = os.getcwd()
        os.chdir(scratch)
        try:
            hashes = run_matrix()
        finally:
            os.chdir(previous)
    for path in sorted(hashes):
        print(f"{hashes[path]}  {path}")


if __name__ == "__main__":
    main()
