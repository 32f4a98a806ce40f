import dataclasses
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from promptuq.blackbox import (FrozenClassifier, LabeledSet, SyntheticSimulator,
                               TaskConfig, make_synthetic_task)
from promptuq.prompt_space import PriorSpec, make_projection
from promptuq.protocol import ExternalSimulator

# `python -m promptuq serve` children import the package from this checkout
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# The d=8 binary task used across the inference tests; seed chosen so a prior
# draw mislabels roughly at chance.
CRITERION_TASK = TaskConfig(subspace_dim=8, prompt_dim=64, feature_dim=16,
                            classes=2, hidden=32, n_train=32, n_test=64,
                            n_ood=64, ood_shift=2.0, seed=7)


@pytest.fixture(scope="session")
def criterion_task():
    return make_synthetic_task(CRITERION_TASK)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A client of a spawned ``promptuq serve`` of CRITERION_TASK, one per test
    module; a test that needs a budget limit sets ``served.budget`` itself."""
    path = tmp_path_factory.mktemp("served") / "task.json"
    path.write_text(json.dumps(dataclasses.asdict(CRITERION_TASK)))
    client = ExternalSimulator.spawn(
        [sys.executable, "-m", "promptuq", "serve", "--task", str(path)])
    yield client
    client.close()


# A task and method params small enough to run every method many times, in
# process and against a spawned ``promptuq serve`` (the ``served_task`` fixture).
TINY_TASK = {"subspace_dim": 4, "prompt_dim": 16, "feature_dim": 4, "classes": 2,
             "hidden": 8, "n_train": 8, "n_test": 8, "n_ood": 8, "ood_shift": 2.0,
             "seed": 3}
TINY_PARAMS = {
    "abc_smc": {"sample_count": 4, "smc_iterations": 3},
    "ensembles": {"population_size": 4, "max_generations": 3, "sample_count": 3},
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


def build_uniform_simulator(subspace_dim=4, feature_dim=4, classes=2, seed=1,
                            allow_logits=True):
    """Simulator whose final layer is zeroed: every query returns 1/C."""
    projection = make_projection(subspace_dim, 4 * subspace_dim, seed=seed)
    base = FrozenClassifier.create(feature_dim, projection, classes, hidden=8,
                                   seed=seed)
    net = FrozenClassifier(projection, base.w1, base.b1, np.zeros_like(base.w2),
                           np.zeros_like(base.b2), base.pool)
    return SyntheticSimulator(net, allow_logits=allow_logits)


def build_fixed_probs_simulator(log_probs, feature_dim=3, seed=0):
    """Simulator returning the same distribution for every (z, input)."""
    classes = len(log_probs)
    projection = make_projection(2, 8, seed=seed)
    base = FrozenClassifier.create(feature_dim, projection, classes, hidden=4,
                                   seed=seed)
    net = FrozenClassifier(projection, np.zeros_like(base.w1), np.zeros_like(base.b1),
                           np.zeros_like(base.w2), np.asarray(log_probs, dtype=float),
                           base.pool)
    return SyntheticSimulator(net)


@pytest.fixture
def uniform_sim():
    return build_uniform_simulator()


@pytest.fixture
def uniform_dataset():
    rng = np.random.default_rng(0)
    return LabeledSet(rng.normal(size=(4, 4)), np.zeros(4, dtype=np.int64))


@pytest.fixture
def wide_prior():
    return PriorSpec(4, 50.0)


# every finite float: subnormals, -0.0 and +-max included
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = float(np.nextafter(0.0, 1.0))
FLOAT_MAX = sys.float_info.max


def distributions(size: int):
    """Lists of ``size`` nonnegative floats summing to 1 up to rounding, in any
    order: ``size - 1`` entries drawn from [0, 1/size] (subnormals and -0.0
    included) and 1 minus their sum."""
    rest = st.lists(st.floats(0.0, 1.0 / size) | st.just(-0.0),
                    min_size=size - 1, max_size=size - 1)
    return rest.map(lambda entries: [1.0 - sum(entries)] + entries).flatmap(st.permutations)
