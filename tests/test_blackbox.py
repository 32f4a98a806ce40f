import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import CRITERION_TASK, build_fixed_probs_simulator
from promptuq.blackbox import (TILE_ROWS, EvalBudget, FrozenClassifier, SyntheticSimulator,
                               TaskConfig, make_synthetic_task, softmax)
from promptuq.errors import (AccessDeniedError, BudgetExhaustedError, ConfigError,
                             config_from_dict)
from promptuq.estimators import EsConfig, negative_log_likelihood, point_estimate
from promptuq.prompt_space import make_projection


def test_uniform_simulator_returns_uniform_rows(uniform_sim):
    rng = np.random.default_rng(0)
    probs = uniform_sim.query_logits(rng.normal(size=4), rng.normal(size=(5, 4)))
    assert np.allclose(probs, 0.5)


SHAPES_DISAGREE = "weight shapes disagree"


# the base classifier: F = 3, d = 2, prompt_dim 8, pooled 8, hidden 4, C = 2
@pytest.mark.parametrize("changes,match", [
    pytest.param({"projection": make_projection(2, 6, seed=0)}, SHAPES_DISAGREE,
                 id="projection0-projection shape"),  # rows != the pooling's 8
    pytest.param({"projection": np.array([[1.0, 0.0]] * 7 + [[np.nan, 0.0]])},
                 "projection contains non-finite", id="projection1-projection contains non-finite"),
    pytest.param({"w2": np.ones((3, 4))}, SHAPES_DISAGREE, id="w2-three classes, b2 two"),
    pytest.param({"w2": np.ones((2, 5))}, SHAPES_DISAGREE, id="w2-five hidden, w1 four"),
    pytest.param({"b1": np.ones(3)}, SHAPES_DISAGREE, id="b1-one entry short"),
    pytest.param({"b2": np.ones(3)}, SHAPES_DISAGREE, id="b2-three classes, w2 two"),
    pytest.param({"w1": np.ones((5, 11))}, SHAPES_DISAGREE, id="w1-five hidden, b1 four"),
    pytest.param({"w1": np.ones((4, 8))}, SHAPES_DISAGREE, id="w1-no feature columns"),
    pytest.param({"w1": np.ones(44)}, SHAPES_DISAGREE, id="w1-a vector"),
    pytest.param({"pool": np.ones((8, 6))}, SHAPES_DISAGREE,
                 id="pool-prompt_dim 6, projection 8"),
    pytest.param({"w2": np.ones((1, 4)), "b2": np.ones(1)}, SHAPES_DISAGREE,
                 id="w2-one class, b2 one"),
])
def test_classifier_refuses_a_projection_that_does_not_fit(changes, match):
    base = FrozenClassifier.create(3, make_projection(2, 8, seed=0), 2, hidden=4, seed=0)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(base, **changes)


def test_query_logits_deterministic(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(1)
    z = rng.normal(size=8)
    x = rng.normal(size=(3, 16))
    assert np.array_equal(sim.query_logits(z, x), sim.query_logits(z, x))


def test_query_logits_rows_normalized(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(2)
    for _ in range(100):
        probs = sim.query_logits(rng.normal(size=8) * 50, rng.normal(size=(4, 16)))
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_argmax_decode_matches_logits_argmax(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(3)
    z = rng.normal(size=8) * 50
    x = rng.normal(size=(20, 16))
    labels = sim.query_labels(z, x)
    assert len(labels) == 20
    assert np.array_equal(labels, np.argmax(sim.query_logits(z, x), axis=1))


def test_argmax_ties_break_to_lowest_index(uniform_sim):
    labels = uniform_sim.query_labels(np.zeros(4), np.zeros((6, 4)))
    assert np.array_equal(labels, np.zeros(6, dtype=int))


def test_sample_decode_frequency_matches_probs():
    sim = build_fixed_probs_simulator(np.log([0.75, 0.25]))
    z = np.zeros(2)
    x = np.zeros((1, 3))
    seeds = np.random.default_rng(5).integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
    labels = np.array([sim.query_labels(z, x, [int(seed)])[0] for seed in seeds])
    assert 0.73 <= np.mean(labels == 0) <= 0.77


class AffineLogitSimulator(SyntheticSimulator):
    """Applies the increasing map 3 * logits + 1 before decoding."""

    def _raw_logits(self, z, inputs):
        return 3.0 * super()._raw_logits(z, inputs) + 1.0


def test_argmax_invariant_under_increasing_logit_transform(criterion_task):
    plain = criterion_task.simulator()
    hooked = AffineLogitSimulator(criterion_task.classifier)
    rng = np.random.default_rng(6)
    for _ in range(10):
        z = rng.normal(size=8) * 50
        x = rng.normal(size=(8, 16))
        assert np.array_equal(plain.query_labels(z, x), hooked.query_labels(z, x))


def test_labels_only_policy_blocks_probabilities(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    with pytest.raises(AccessDeniedError):
        sim.query_logits(np.zeros(8), np.zeros((1, 16)))
    # labels stay available
    assert len(sim.query_labels(np.zeros(8), np.zeros((2, 16)))) == 2


def test_budget_counts_and_enforces_limit(criterion_task):
    sim = criterion_task.simulator()
    sim.budget = EvalBudget(limit=10)
    sim.query_logits(np.zeros(8), np.zeros((6, 16)))
    assert sim.budget.used == 6
    sim.query_labels(np.zeros(8), np.zeros((4, 16)))
    assert sim.budget.used == 10
    with pytest.raises(BudgetExhaustedError):
        sim.query_labels(np.zeros(8), np.zeros((1, 16)))
    assert sim.budget.used == 10  # refused queries charge nothing


class CountingWrapper:
    """Delegating simulator that independently counts (z, input) pairs."""

    def __init__(self, sim):
        self._sim = sim
        self.pairs = 0

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def query_logits(self, z, inputs):
        self.pairs += len(np.atleast_2d(z)) * len(np.atleast_2d(inputs))
        return self._sim.query_logits(z, inputs)

    def query_labels(self, z, inputs, seeds=None):
        self.pairs += len(np.atleast_2d(z)) * len(np.atleast_2d(inputs))
        return self._sim.query_labels(z, inputs, seeds)


def test_budget_audit_over_inference_run(criterion_task):
    sim = criterion_task.simulator()
    wrapper = CountingWrapper(sim)
    point_estimate(wrapper, criterion_task.prior, criterion_task.train,
                   EsConfig(population_size=4, max_generations=5), seed=0)
    assert wrapper.pairs == sim.budget.used
    assert sim.budget.used == 4 * 5 * len(criterion_task.train)


def test_task_train_labels_reproduce_exactly(criterion_task):
    sim = criterion_task.simulator()
    relabeled = sim.query_labels(criterion_task.z_star, criterion_task.train.X)
    assert np.array_equal(relabeled, criterion_task.train.y)


def test_task_deterministic_in_seed():
    a = make_synthetic_task(CRITERION_TASK)
    b = make_synthetic_task(CRITERION_TASK)
    assert np.array_equal(a.train.X, b.train.X)
    assert np.array_equal(a.train.y, b.train.y)
    assert np.array_equal(a.z_star, b.z_star)
    assert np.array_equal(a.near_ood, b.near_ood)
    assert np.array_equal(a.far_ood, b.far_ood)


def test_near_ood_mean_shift():
    cfg = TaskConfig(subspace_dim=4, prompt_dim=16, feature_dim=16, classes=2,
                     hidden=16, n_train=8, n_test=10_000, n_ood=10_000,
                     ood_shift=2.0, seed=13)
    task = make_synthetic_task(cfg)
    gap = np.linalg.norm(task.near_ood.mean(axis=0) - task.test.X.mean(axis=0))
    assert abs(gap - cfg.ood_shift) <= 0.1 * cfg.ood_shift


def test_far_ood_center_and_spread():
    cfg = TaskConfig(subspace_dim=4, prompt_dim=16, feature_dim=16, classes=2,
                     hidden=16, n_train=8, n_test=16, n_ood=20_000,
                     ood_shift=2.0, seed=13)
    task = make_synthetic_task(cfg)
    assert np.linalg.norm(task.far_ood.mean(axis=0)) == pytest.approx(
        2 * cfg.ood_shift, rel=0.1)
    assert task.far_ood.var(axis=0).mean() == pytest.approx(2.0, rel=0.1)


def test_label_noise_flips_requested_fraction():
    noisy_cfg = TaskConfig(**{**dataclasses.asdict(CRITERION_TASK),
                              "label_noise": 0.25})
    noisy = make_synthetic_task(noisy_cfg)
    clean = make_synthetic_task(CRITERION_TASK)
    flipped = np.mean(noisy.train.y != clean.train.y)
    assert flipped == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("field,value", [
    ("classes", 1), ("n_train", 0), ("subspace_dim", 100),
    ("label_noise", 1.5), ("prior_sigma", 0.0), ("prior_sigma", 1e-300),
    ("prior_sigma", 1e300), ("pooled_dim", -1), ("pooled_dim", 0), ("seed", -1),
])
def test_task_config_validation(field, value):
    payload = dataclasses.asdict(CRITERION_TASK)
    payload[field] = value
    with pytest.raises(ConfigError) as excinfo:
        TaskConfig(**payload)
    assert excinfo.value.field == field
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(TaskConfig, payload, "task")
    assert excinfo.value.field == f"task.{field}"


def test_task_config_rejects_unknown_keys():
    payload = dataclasses.asdict(CRITERION_TASK)
    payload["bogus"] = 1
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(TaskConfig, payload, "task")
    assert excinfo.value.field == "task.bogus"


def test_inputs_feature_mismatch_rejected(uniform_sim):
    with pytest.raises(ValueError):
        uniform_sim.query_logits(np.zeros(4), np.zeros((2, 5)))


# The method-comparison task, criterion 8's wider prompt and a three-class task.
BATCH_TASKS = {
    "comparison": CRITERION_TASK,
    "wide_prompt": dataclasses.replace(CRITERION_TASK, subspace_dim=16, prompt_dim=128,
                                       label_noise=0.1, seed=100),
    "three_classes": dataclasses.replace(CRITERION_TASK, classes=3, feature_dim=5,
                                         hidden=12, seed=11),
}


@pytest.fixture(scope="module", params=sorted(BATCH_TASKS))
def batch_task(request):
    return make_synthetic_task(BATCH_TASKS[request.param])


def _whole_matrix_probs(classifier, zs, inputs):
    """Probabilities of every pair through the precomposed first layer in one
    whole-matrix GEMM, (x @ w1[:, :F].T + b1) + ((w1[:, F:] @ pool) @ projection) @ z,
    and the two-pass softmax: the kernel's formula without row tiles."""
    features = inputs.shape[1]
    prompt_map = (classifier.w1[:, features:] @ classifier.pool) @ classifier.projection
    input_half = inputs @ classifier.w1[:, :features].T + classifier.b1
    prompt_halves = np.matmul(prompt_map, zs[..., None]).transpose(0, 2, 1)
    logits = np.matmul(np.tanh(input_half + prompt_halves),
                       classifier.w2.T) + classifier.b2
    return _two_pass_softmax(logits.reshape(-1, classifier.classes))


def _two_pass_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 17)),
              elements=st.one_of(st.sampled_from([-2.5, -0.0, 0.0, 1.0]),
                                 st.floats(allow_nan=False, allow_infinity=False))))
@settings(max_examples=300, deadline=None)
def test_in_place_softmax_equals_the_two_pass_formula_bit_for_bit(logits):
    with np.errstate(over="ignore"):  # x - max can overflow to -inf, exp of it is 0
        expected = _two_pass_softmax(logits)
        assert np.array_equal(softmax(logits), expected)


@pytest.mark.parametrize("k,n", [(1, 2 * TILE_ROWS), (2, 2 * TILE_ROWS + 37), (3, 16384)])
def test_tiled_query_equals_the_whole_matrix_formula_bit_for_bit(criterion_task, k, n):
    rng = np.random.default_rng(n)
    zs = rng.normal(size=(k, 8)) * 50
    x = rng.normal(size=(n, 16))
    assert np.array_equal(criterion_task.simulator().query_logits(zs, x),
                          _whole_matrix_probs(criterion_task.classifier, zs, x))


@pytest.mark.parametrize("n", [5, 2 * TILE_ROWS + 37])
def test_a_z_whose_prompt_overflows_answers_non_finite_rows_alone(criterion_task, n):
    # the folded map alone would answer finite rows for this z; its rows are
    # non-finite, and the z beside it in the stack keep their single-z rows
    classifier = criterion_task.classifier
    rng = np.random.default_rng(n)
    good = rng.normal(size=(2, 8)) * 50
    bad = np.full(8, 1e308)
    x = rng.normal(size=(n, 16))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(classifier.pool @ (classifier.projection @ bad)).all()
        assert np.isfinite(classifier.prompt_map @ bad).all()
        rows = classifier.logits(np.stack([good[0], bad, good[1]]), x).reshape(3, n, -1)
    assert not np.isfinite(rows[1]).any()
    assert np.array_equal(rows[0], classifier.logits(good[:1], x))
    assert np.array_equal(rows[2], classifier.logits(good[1:], x))


def test_a_wide_query_holds_a_bounded_scratch(criterion_task):
    # one z over 65,536 inputs goes through row tiles, 2,000 z over 32 inputs
    # through stacked passes; neither scratch grows with the query
    for k, n in [(1, 65536), (2000, 32)]:
        rng = np.random.default_rng(n)
        zs, x = rng.normal(size=(k, 8)), rng.normal(size=(n, 16))
        sim = criterion_task.simulator()
        tracemalloc.start()
        try:
            labels = sim.query_labels(zs, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < labels.nbytes + 4 * 2 ** 20, (k, n)


# Warm-up queries at K = 1, 20 and 200, then 200 queries of 200 z over 32
# inputs; prints the minor page faults per measured query.
_FAULT_PROBE = """
import json, resource, sys
import numpy as np
from promptuq.blackbox import TaskConfig, make_synthetic_task
sim = make_synthetic_task(TaskConfig(**json.loads(sys.argv[1]))).simulator()
rng = np.random.default_rng(0)
x = rng.normal(size=(32, sim.feature_dim))
for k in (1, 20, 200):
    for _ in range(20):
        sim.query_logits(rng.normal(size=(k, sim.subspace_dim)), x)
zs = rng.normal(size=(200, sim.subspace_dim))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    sim.query_logits(zs, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's minor page faults")
def test_repeated_stacked_queries_take_no_fresh_pages():
    # the kernel's scratch is one block: two blocks of a pass's size were
    # handed back to the OS after every call, about 250 faults per query
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE,
                          json.dumps(dataclasses.asdict(CRITERION_TASK))],
                         capture_output=True, text=True, check=True).stdout
    assert float(out) < 25


def _check_stacked_rows_equal_single_queries(task, k, n):
    sim = task.simulator()
    rng = np.random.default_rng(k * 1000 + n)
    zs = rng.normal(size=(k, task.config.subspace_dim)) * task.prior.sigma
    x = rng.normal(size=(n, task.config.feature_dim))
    probs = sim.query_logits(zs, x)
    labels = sim.query_labels(zs, x)
    assert probs.shape == (k * n, sim.classes) and labels.shape == (k * n,)
    assert sim.budget.used == 2 * k * n
    assert np.array_equal(probs, np.concatenate([sim.query_logits(z, x) for z in zs]))
    assert np.array_equal(labels, np.concatenate([sim.query_labels(z, x) for z in zs]))


@pytest.mark.parametrize("k", [1, 2, 20, 1500])
@pytest.mark.parametrize("n", [1, 32, 1030])  # 1030 inputs: one z per pass
def test_stacked_query_rows_equal_single_queries_bit_for_bit(batch_task, k, n):
    _check_stacked_rows_equal_single_queries(batch_task, k, n)


# 4,133 inputs: two row tiles, the second 2,048 rows plus the 37-row tail; 16,384: eight
@pytest.mark.parametrize("k,n", [(2, 4133), (3, 16384)])
def test_tiled_query_rows_equal_single_queries_bit_for_bit(batch_task, k, n):
    _check_stacked_rows_equal_single_queries(batch_task, k, n)


def test_vector_query_is_the_one_row_stack(criterion_task):
    sim = criterion_task.simulator()
    z = np.random.default_rng(7).normal(size=8) * 50
    x = criterion_task.test.X
    assert sim.query_logits(z, x).shape == (len(x), 2)
    assert np.array_equal(sim.query_logits(z, x), sim.query_logits(z[None], x))
    assert np.array_equal(sim.query_labels(z, x), sim.query_labels(z[None], x))


@pytest.mark.parametrize("k", [1, 2, 20, 300])
def test_rowwise_nll_equals_single_z_floats_bit_for_bit(batch_task, k):
    sim = batch_task.simulator()
    zs = np.random.default_rng(k).normal(size=(k, batch_task.config.subspace_dim)) * 50
    losses = negative_log_likelihood(sim, zs, batch_task.train)
    single = [negative_log_likelihood(sim, z, batch_task.train)[0] for z in zs]
    assert isinstance(single[0], float)
    assert losses.shape == (k,)
    assert losses.tolist() == single


def test_stacked_query_past_the_budget_charges_nothing(criterion_task):
    sim = criterion_task.simulator()
    sim.budget = EvalBudget(limit=100)
    sim.query_logits(np.zeros((2, 8)), np.zeros((30, 16)))
    assert sim.budget.used == 60
    for query in (sim.query_logits, sim.query_labels):
        with pytest.raises(BudgetExhaustedError):
            query(np.zeros((2, 8)), np.zeros((30, 16)))
        assert sim.budget.used == 60


def test_malformed_z_is_refused_before_charging(criterion_task):
    sim = criterion_task.simulator()
    for z in (np.zeros(7), np.zeros((2, 9)), np.zeros((1, 2, 8))):
        with pytest.raises(ValueError):
            sim.query_logits(z, np.zeros((3, 16)))
    assert sim.budget.used == 0


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_out_of_range_decode_seed_raises_before_charging(criterion_task, seed):
    sim = criterion_task.simulator()
    with pytest.raises(ValueError, match="seed"):
        sim.query_labels(np.zeros(8), criterion_task.train.X, [seed])
    assert sim.budget.used == 0


def test_sample_decode_of_a_one_row_stack_equals_the_vector(criterion_task):
    sim = criterion_task.simulator()
    assert np.array_equal(sim.query_labels(np.ones((1, 8)), criterion_task.train.X, [5]),
                          sim.query_labels(np.ones(8), criterion_task.train.X, [5]))
