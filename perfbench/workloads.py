"""The benchmark's workloads, built from the method-comparison task.

Every workload runs on the task of ``scripts/run_method_comparison.py``
(d=8, D=64, F=16, C=2, hidden=32, n_train=32, task seed 7). A workload is a
list of experiments; one *iteration* runs each of them once through
``run_experiment`` at one experiment seed.

Each inference workload also runs one method against a child ``promptuq
serve`` in its own access regime: point_cmaes over TCP in logits mode, and
rejection ABC over stdio in labels-only mode. They ride along rather than
form a workload of their own because alone their wall time, set by
round-trip latency, spread by a third (interquartile range over median)
across ten runs on a shared 2-core virtual machine, beyond any bound the
benchmark may set.

Experiment seeds: iteration 0 always runs at ``REFERENCE_SEED`` so its
results can be compared exactly with ``reference.json``; iteration i >= 1
runs at ``experiment_seed(seed, i)``, derived from the benchmark's --seed.
ABC-SMC experiments are pinned to ``REFERENCE_SEED``: their cost is set by
the data-derived initial tolerance, one prior draw per seed, and varies
20-fold between seeds (70k to 1.9M simulator pairs over seeds 0-9, with a
stagnation on seed 9), so a per-seed SMC cost cannot be steady.

``scale="tiny"`` shrinks every size so the test suite can smoke each
workload in seconds; the benchmark itself always runs ``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 0
WORKLOADS = ("infer_logits", "infer_labels", "evaluate_wide")
SCALES = ("full", "tiny")

TASK = {"subspace_dim": 8, "prompt_dim": 64, "feature_dim": 16, "classes": 2,
        "hidden": 32, "n_train": 32, "n_test": 256, "n_ood": 128,
        "ood_shift": 2.0, "seed": 7}

SIZES = {
    "full": {"generations": 300, "wide_generations": 20, "served_generations": 60,
             "members": 10,
             "samples": 100, "mc_samples": 10, "smc_iterations": 7,
             "n_test": 256, "n_ood": 128, "wide_n_test": 16384, "wide_n_ood": 8192},
    "tiny": {"generations": 3, "wide_generations": 2, "served_generations": 3,
             "members": 2,
             "samples": 4, "mc_samples": 2, "smc_iterations": 2,
             "n_test": 16, "n_ood": 8, "wide_n_test": 64, "wide_n_ood": 32},
}

TCP = "tcp"
STDIO = "stdio"


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call of a workload iteration."""

    label: str
    method: str
    params: dict
    task: dict
    pinned: bool = False           # always runs at REFERENCE_SEED
    endpoint: str | None = None    # None: in process; else the served transport


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    task: dict                     # the task the served endpoints are built from
    experiments: tuple[Experiment, ...]


def experiment_seed(seed: int, iteration: int) -> int:
    """Seed of iteration ``iteration`` of a benchmark run with --seed ``seed``."""
    if iteration == 0:
        return REFERENCE_SEED
    return 1000 * (seed + 1) + iteration


def build(name: str, scale: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    s = SIZES[scale]
    task = {**TASK, "n_test": s["n_test"], "n_ood": s["n_ood"]}
    es = {"population_size": 20, "max_generations": s["generations"]}
    # a round trip's wall time swings by a quarter with host load, so the
    # served CMA-ES run is kept to 1.2k requests
    served_es = {**es, "max_generations": s["served_generations"]}
    rejection = {"epsilon": 0.45, "max_draws": 200_000, "sample_count": s["samples"]}
    gfvi = {"population_size": 20, "sample_count": s["samples"],
            "mc_samples": s["mc_samples"]}
    smc = {"smc_iterations": s["smc_iterations"], "sample_count": s["samples"]}

    if name == "infer_logits":
        experiments = (
            Experiment("point_cmaes", "point_cmaes", es, task),
            Experiment("ensembles", "ensembles", {**es, "sample_count": s["members"]}, task),
            Experiment("gfvi", "gfvi", {**gfvi, "max_generations": s["generations"]}, task),
            Experiment("point_cmaes_tcp", "point_cmaes", served_es, task, endpoint=TCP),
        )
    elif name == "infer_labels":
        experiments = (
            Experiment("rejection_abc", "rejection_abc", rejection, task),
            Experiment("abc_smc_importance", "abc_smc",
                       {**smc, "weight_scheme": "importance"}, task, pinned=True),
            Experiment("abc_smc_uniform", "abc_smc",
                       {**smc, "weight_scheme": "uniform"}, task, pinned=True),
            Experiment("rejection_abc_stdio", "rejection_abc", rejection, task,
                       endpoint=STDIO),
        )
    else:
        task = {**task, "n_test": s["wide_n_test"], "n_ood": s["wide_n_ood"]}
        experiments = (
            Experiment("gfvi", "gfvi", {**gfvi, "max_generations": s["wide_generations"]},
                       task),
            Experiment("rejection_abc", "rejection_abc", rejection, task),
        )
    return Workload(name, scale, task, experiments)


def in_process_payload(exp: Experiment, seed: int) -> dict:
    """Config dict of ``exp`` run against the built-in simulator."""
    return {"task": exp.task, "method": exp.method,
            "seed": REFERENCE_SEED if exp.pinned else seed, "params": exp.params}
