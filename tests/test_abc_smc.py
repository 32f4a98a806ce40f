import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CRITERION_TASK, build_uniform_simulator
from promptuq.abc_smc import (RejectionConfig, SmcConfig, abc_smc, decay_tolerance,
                              distance_error_rate, effective_sample_size,
                              initial_tolerance, rejection_abc,
                              update_kernel_variance, update_weights)
from promptuq.blackbox import EvalBudget, LabeledSet, make_synthetic_task
from promptuq.errors import (BudgetExhaustedError, DegenerateWeightsError,
                             NumericalBreakdownError, StagnationError)
from promptuq.prompt_space import PriorSpec, prior_log_density, sample_prior
from reference_abc_smc import reference_abc_smc


def test_distance_basic_values():
    assert distance_error_rate([[0, 1, 2]], [0, 1, 2]).tolist() == [0.0]
    assert distance_error_rate([[0, 0]], [1, 1]).tolist() == [1.0]
    assert distance_error_rate([[0, 1, 0, 1]], [0, 1, 1, 0]).tolist() == [0.5]
    rows = distance_error_rate([[0, 1, 2], [0, 0, 0], [2, 2, 2]], [0, 1, 2])
    assert rows.tolist() == [0.0, distance_error_rate([[0, 0, 0]], [0, 1, 2])[0], 2 / 3]


def test_distance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        distance_error_rate([0, 1], [0, 1])  # one label list is a (1, n) matrix
    with pytest.raises(ValueError):
        distance_error_rate([[]], [])
    with pytest.raises(ValueError):
        distance_error_rate([[0, 1]], [0])
    with pytest.raises(ValueError):
        distance_error_rate([[[0]]], [0])


def test_initial_tolerance_range_and_boundary(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    for seed in range(20):
        value = initial_tolerance(sim, criterion_task.prior, criterion_task.train,
                                  np.random.default_rng(seed))
        assert 0.0 <= value <= 1.0

    # a simulator that reproduces the labels for every draw yields 0
    uniform = build_uniform_simulator()
    dataset = LabeledSet(np.zeros((6, 4)), np.zeros(6, dtype=np.int64))
    assert initial_tolerance(uniform, PriorSpec(4, 50.0), dataset,
                             np.random.default_rng(0)) == 0.0


def test_initial_tolerance_near_chance_mean():
    # binary task: random prompts mislabel near chance level
    cfg = dataclasses.replace(CRITERION_TASK, seed=0)
    task = make_synthetic_task(cfg)
    sim = task.simulator(allow_logits=False)
    values = [initial_tolerance(sim, task.prior, task.train,
                                np.random.default_rng(s)) for s in range(200)]
    assert 0.35 <= np.mean(values) <= 0.65


def test_decay_tolerance_values():
    assert decay_tolerance(0.5, 32) == pytest.approx(0.46875, abs=0)
    eps = 0.5
    for _ in range(3):
        eps = decay_tolerance(eps, 32)
    assert eps == pytest.approx(0.40625, abs=0)
    assert decay_tolerance(1 / 32, 32) == 0.0
    assert decay_tolerance(0.0, 32) == 0.0


def test_rejection_abc_vacuous_threshold(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    result = rejection_abc(sim, criterion_task.prior, criterion_task.train,
                           RejectionConfig(10, epsilon=1.0, max_draws=1000), seed=0)
    assert result.size == 10
    assert result.diagnostics["draws"] == 10  # every draw accepted
    assert np.allclose(result.weights, 0.1)
    assert result.provenance == "rejection_abc"


def test_rejection_abc_particles_recheck(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    epsilon = 0.45
    result = rejection_abc(sim, criterion_task.prior, criterion_task.train,
                           RejectionConfig(15, epsilon=epsilon, max_draws=20_000), seed=1)
    for z in result.samples:
        dist = distance_error_rate(sim.query_labels(z, criterion_task.train.X)[None],
                                   criterion_task.train.y)[0]
        assert dist < epsilon


def sequential_rejection(sim, prior, dataset, count, epsilon, max_draws, seed):
    """One prior draw and one query at a time: accepted samples and draws."""
    rng = np.random.default_rng(seed)
    accepted, draws = [], 0
    while len(accepted) < count and draws < max_draws:
        z = sample_prior(prior, 1, rng)[0]
        draws += 1
        if distance_error_rate(sim.query_labels(z, dataset.X)[None], dataset.y)[0] < epsilon:
            accepted.append(z)
    return accepted, draws


def test_rejection_abc_blocks_spend_the_draws_of_a_sequential_loop(criterion_task):
    prior, train = criterion_task.prior, criterion_task.train
    reference = criterion_task.simulator(allow_logits=False)
    accepted, draws = sequential_rejection(reference, prior, train, 12, 0.45, 20_000, 4)
    sim = criterion_task.simulator(allow_logits=False)
    result = rejection_abc(sim, prior, train, RejectionConfig(12, 0.45, 20_000), seed=4)
    assert np.array_equal(result.samples, np.array(accepted))
    assert result.diagnostics["draws"] == draws
    assert sim.budget.used == reference.budget.used == draws * len(train)

    # a draw budget that runs out one draw early stops where the loop would
    short = criterion_task.simulator(allow_logits=False)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        rejection_abc(short, prior, train, RejectionConfig(12, 0.45, draws - 1), seed=4)
    assert str(excinfo.value) == (f"rejection sampling used all {draws - 1} draws with "
                                  f"11/12 acceptances at epsilon 0.45")
    assert short.budget.used == (draws - 1) * len(train)


def test_rejection_abc_acceptance_strictly_below_epsilon():
    # every prior draw scores distance exactly 0.5 here, so epsilon = 0.5
    # accepts nothing (strict comparison) while anything above passes
    sim = build_uniform_simulator()
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    dataset = LabeledSet(np.zeros((6, 4)), labels)
    prior = PriorSpec(4, 50.0)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        rejection_abc(sim, prior, dataset, RejectionConfig(3, 0.5, max_draws=50), seed=2)
    assert str(excinfo.value) == ("rejection sampling used all 50 draws with 0/3 "
                                  "acceptances at epsilon 0.5")
    result = rejection_abc(sim, prior, dataset, RejectionConfig(3, 0.51, max_draws=50),
                           seed=2)
    assert result.size == 3


def test_rejection_abc_default_epsilon_is_initial_tolerance(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    args = (sim, criterion_task.prior, criterion_task.train)
    expected = initial_tolerance(
        *args, np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0, 0))))
    result = rejection_abc(*args, RejectionConfig(3, None, max_draws=100_000), seed=11)
    assert result.diagnostics["epsilon"] == expected


def test_rejection_abc_rate_monotone_in_epsilon(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    rates = {0.5: [], 0.25: []}
    for seed in range(10):
        for eps in rates:
            result = rejection_abc(sim, criterion_task.prior, criterion_task.train,
                                   RejectionConfig(5, eps, max_draws=100_000),
                                   seed=seed)
            rates[eps].append(result.diagnostics["acceptance_rate"])
    assert np.mean(rates[0.5]) > np.mean(rates[0.25])


def test_rejection_abc_budget_error_carries_partial_count(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        rejection_abc(sim, criterion_task.prior, criterion_task.train,
                      RejectionConfig(50, epsilon=0.05, max_draws=30), seed=3)
    match = re.fullmatch(r"rejection sampling used all 30 draws with (\d+)/50 acceptances "
                         r"at epsilon 0\.05", str(excinfo.value))
    assert match and 0 <= int(match[1]) < 50


def test_update_weights_single_particle_is_one():
    prior = PriorSpec(2, 5.0)
    weights = update_weights(np.array([[100.0, -50.0]]), np.array([[0.0, 0.0]]),
                             np.array([1.0]), np.array([0.1, 0.1]), prior)
    assert np.array_equal(weights, np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_update_weights_normalized(seed):
    rng = np.random.default_rng(seed)
    prior = PriorSpec(3, float(rng.uniform(1, 60)))
    prev = rng.normal(size=(6, 3)) * prior.sigma
    new = rng.normal(size=(6, 3)) * prior.sigma
    prev_w = rng.dirichlet(np.ones(6))
    var = rng.uniform(0.1, 5.0, size=3)
    weights = update_weights(new, prev, prev_w, var, prior)
    assert (weights >= 0).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_update_weights_matches_brute_force_mixture():
    # linear-space oracle: no log tricks
    def brute(new, prev, prev_w, var, prior):
        out = []
        for z in new:
            prior_pdf = np.exp(prior_log_density(prior, z))
            mix = 0.0
            for w, zp in zip(prev_w, prev):
                pdf = np.prod(np.exp(-0.5 * (z - zp) ** 2 / var)
                              / np.sqrt(2 * np.pi * var))
                mix += w * pdf
            out.append(prior_pdf / mix)
        out = np.array(out)
        return out / out.sum()

    for seed in range(100):
        rng = np.random.default_rng(seed)
        prior = PriorSpec(3, float(rng.uniform(1, 10)))
        # equal counts, then 7 new particles against 4 previous ones
        n_prev, n_new = (5, 5) if seed % 2 else (4, 7)
        prev = rng.normal(size=(n_prev, 3)) * prior.sigma
        new = prev[rng.integers(n_prev, size=n_new)] + rng.normal(size=(n_new, 3))
        prev_w = rng.dirichlet(np.ones(n_prev))
        var = rng.uniform(0.2, 3.0, size=3)
        ours = update_weights(new, prev, prev_w, var, prior)
        proof = brute(new, prev, prev_w, var, prior)
        assert np.allclose(ours, proof, rtol=1e-8, atol=0)


def test_update_weights_near_the_float_range_stay_finite():
    # 2 pi var and (z - prev)^2 overflow here although every log weight is finite
    rng = np.random.default_rng(0)
    prior = PriorSpec(2, 1e154)
    prev = rng.normal(size=(4, 2)) * prior.sigma
    new = prev[[0, 1, 1, 3]] + rng.normal(size=(4, 2)) * prior.sigma
    weights = update_weights(new, prev, np.full(4, 0.25), np.full(2, 1e308), prior)
    assert np.isfinite(weights).all() and (weights > 0).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_weights_degenerate_error():
    prior = PriorSpec(2, 1.0)
    with pytest.raises(DegenerateWeightsError):
        update_weights(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3),
                       np.ones(2), prior)


def test_kernel_variance_identical_particles_floored():
    particles = np.tile([1.5, -2.0, 0.0], (7, 1))
    weights = np.full(7, 1 / 7)
    variance = update_kernel_variance(particles, weights, 1e-8)
    assert np.array_equal(variance, np.full(3, 1e-8))


def test_kernel_variance_that_overflows_is_a_numerical_breakdown():
    with pytest.raises(NumericalBreakdownError, match="overflowed"):
        update_kernel_variance(np.array([[-1e155], [1e155]]), np.array([0.5, 0.5]), 1e-8)


def test_kernel_variance_analytic_case():
    variance = update_kernel_variance(np.array([[-1.0], [1.0]]),
                                      np.array([0.5, 0.5]), 1e-8)
    assert variance[0] == pytest.approx(1.0, abs=1e-15)


def test_kernel_variance_matches_brute_force():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        particles = rng.normal(size=(8, 4)) * 10
        weights = rng.dirichlet(np.ones(8))
        ours = update_kernel_variance(particles, weights, 1e-12)
        mean = sum(w * z for w, z in zip(weights, particles))
        proof = sum(w * (z - mean) ** 2 for w, z in zip(weights, particles))
        assert np.allclose(ours, np.maximum(proof, 1e-12), atol=1e-10)


def test_effective_sample_size_values():
    assert effective_sample_size(np.full(100, 0.01)) == pytest.approx(100.0)
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    assert effective_sample_size(one_hot) == pytest.approx(1.0)
    assert effective_sample_size(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        effective_sample_size(np.array([0.5, 0.2]))


@settings(max_examples=60)
@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
def test_ess_bounds_and_uniform_equality(size, seed):
    weights = np.random.default_rng(seed).dirichlet(np.ones(size))
    ess = effective_sample_size(weights)
    assert 1.0 <= ess <= size + 1e-9
    uniform_ess = effective_sample_size(np.full(size, 1 / size))
    assert uniform_ess == pytest.approx(size, rel=1e-12)


SMC_CFG = SmcConfig(sample_count=40, smc_iterations=6,
                    weight_scheme="importance")


def test_abc_smc_tolerance_trace_and_recheck(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    result = abc_smc(sim, criterion_task.prior, criterion_task.train, SMC_CFG,
                     seed=4)

    eps = result.trace["epsilon"]
    n = len(criterion_task.train)
    for t, value in enumerate(eps):
        assert value == eps[0] - t / n  # exact: dyadic arithmetic at N=32
    # importance weights reduce to uniform at iteration one
    assert result.trace["ess"][0] == pytest.approx(SMC_CFG.sample_count, rel=1e-12)

    final_eps = result.diagnostics["final_epsilon"]
    assert final_eps == eps[-1]
    for z in result.samples:
        dist = distance_error_rate(sim.query_labels(z, criterion_task.train.X)[None],
                                   criterion_task.train.y)[0]
        assert dist <= final_eps


@pytest.mark.parametrize("scheme", ["importance", "uniform"])
def test_abc_smc_trace_accounts_for_every_call(criterion_task, scheme):
    sim = criterion_task.simulator(allow_logits=False)
    cfg = SmcConfig(sample_count=20, smc_iterations=4, weight_scheme=scheme)
    result = abc_smc(sim, criterion_task.prior, criterion_task.train, cfg, seed=12)
    trace, diag = result.trace, result.diagnostics
    assert list(trace) == ["iteration", "epsilon", "ess", "total_attempts",
                           "simulator_calls"]
    assert all(len(column) == diag["iterations"] for column in trace.values())
    assert trace["iteration"] == list(range(1, int(diag["iterations"]) + 1))
    calls = sum(trace["simulator_calls"])
    assert calls == diag["simulator_calls"] == sim.budget.used
    assert sum(trace["total_attempts"]) == diag["total_attempts"]


def test_abc_smc_uniform_scheme_keeps_uniform_weights(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    cfg = SmcConfig(sample_count=30, smc_iterations=5, weight_scheme="uniform")
    result = abc_smc(sim, criterion_task.prior, criterion_task.train, cfg, seed=5)
    assert np.allclose(result.weights, 1 / 30)
    for ess in result.trace["ess"]:
        assert ess == pytest.approx(30.0, rel=1e-12)


def test_abc_smc_never_needs_probabilities(criterion_task):
    # the labels-only simulator raises on any probability query
    sim = criterion_task.simulator(allow_logits=False)
    result = abc_smc(sim, criterion_task.prior, criterion_task.train, SMC_CFG, seed=6)
    assert result.size == SMC_CFG.sample_count


def test_abc_smc_deterministic(criterion_task):
    runs = []
    for _ in range(2):
        sim = criterion_task.simulator(allow_logits=False)
        runs.append(abc_smc(sim, criterion_task.prior, criterion_task.train,
                            SMC_CFG, seed=7))
    assert np.array_equal(runs[0].samples, runs[1].samples)
    assert np.array_equal(runs[0].weights, runs[1].weights)
    assert runs[0].diagnostics == runs[1].diagnostics


def test_abc_smc_iteration_one_is_strict():
    # every draw has distance exactly equal to the initial tolerance, so the
    # strict comparison can never accept and the run stagnates
    sim = build_uniform_simulator()
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    dataset = LabeledSet(np.zeros((6, 4)), labels)
    cfg = SmcConfig(sample_count=5, smc_iterations=3,
                    max_attempts=25)
    with pytest.raises(StagnationError) as excinfo:
        abc_smc(sim, PriorSpec(4, 50.0), dataset, cfg, seed=8)
    assert re.fullmatch(r"particle \d+ found no proposal within epsilon 0\.5 in 25 "
                        r"attempts \(iteration 1\)", str(excinfo.value))


def test_abc_smc_stagnation_reports_context(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    cfg = SmcConfig(sample_count=20, smc_iterations=12,
                    max_attempts=2)
    with pytest.raises(StagnationError) as excinfo:
        abc_smc(sim, criterion_task.prior, criterion_task.train, cfg, seed=9)
    match = re.fullmatch(r"particle \d+ found no proposal within epsilon (\S+) in 2 "
                         r"attempts \(iteration (\d+)\)", str(excinfo.value))
    assert match and 0.0 <= float(match[1]) <= 1.0 and int(match[2]) >= 1


def test_abc_smc_default_particle_count_is_100():
    assert SmcConfig().sample_count == 100


@pytest.mark.parametrize("run", [
    lambda sim, prior, data: rejection_abc(sim, prior, data, RejectionConfig(), seed=0),
    lambda sim, prior, data: abc_smc(sim, prior, data, SmcConfig(), seed=0),
], ids=["rejection_abc", "abc_smc"])
def test_zero_initial_tolerance_stagnates_before_any_proposal(run):
    # the uniform simulator labels everything 0, so one prior draw has error 0
    # and no proposal can beat the tolerance strictly
    sim = build_uniform_simulator(allow_logits=False)
    dataset = LabeledSet(np.zeros((6, 4)), np.zeros(6, dtype=np.int64))
    with pytest.raises(StagnationError) as excinfo:
        run(sim, PriorSpec(4, 50.0), dataset)
    assert str(excinfo.value) == ("the initial tolerance is 0, which no proposal can "
                                  "strictly beat")
    assert sim.budget.used == 6  # the one tolerance query


def run_both(task, cfg, seed):
    """(posterior, budget used) of the lock-step run and of the sequential loop."""
    runs = []
    for run in (abc_smc, reference_abc_smc):
        sim = task.simulator(allow_logits=False)
        runs.append((run(sim, task.prior, task.train, cfg, seed), sim.budget.used))
    return runs


def assert_same_run(ours, reference):
    (result, used), (expected, expected_used) = ours, reference
    assert np.array_equal(result.samples, expected.samples)
    assert np.array_equal(result.weights, expected.weights)
    assert result.trace == expected.trace
    assert result.diagnostics == expected.diagnostics
    assert used == expected_used


@pytest.mark.parametrize("scheme", ["importance", "uniform"])
@pytest.mark.parametrize("seed", range(5))
def test_lock_step_rounds_equal_the_sequential_loop(criterion_task, scheme, seed):
    cfg = SmcConfig(sample_count=30, smc_iterations=5, weight_scheme=scheme)
    assert_same_run(*run_both(criterion_task, cfg, seed))


def test_a_thousand_particles_equal_the_sequential_loop(criterion_task):
    cfg = SmcConfig(sample_count=1000, smc_iterations=2, weight_scheme="importance")
    ours, reference = run_both(criterion_task, cfg, seed=0)
    assert_same_run(ours, reference)
    assert ours[0].size == 1000 and ours[0].diagnostics["iterations"] == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_the_hoisted_cdf_draws_what_choice_draws(size, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(size, 0.3))
    if seed % 3 == 0:
        weights = np.full(size, 1.0 / size)  # the uniform scheme's weights
    elif seed % 3 == 1:
        weights[1:][rng.random(size - 1) < 0.3] = 0.0  # vanished importance weights
        weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(20):
        assert cdf.searchsorted(ours.random(), side="right") == theirs.choice(size, p=weights)
        assert np.array_equal(ours.standard_normal(3), theirs.standard_normal(3))
    assert ours.bit_generator.state == theirs.bit_generator.state


# Error semantics of lock-step rounds, in process and against a spawned
# ``promptuq serve``: the same outcome either way.

@pytest.fixture(params=["in_process", "served"])
def labels_sim(request, criterion_task):
    """Call with a budget limit for a fresh budget on the chosen simulator."""
    def make(limit=None):
        if request.param == "in_process":
            sim = criterion_task.simulator(allow_logits=False)
            sim.budget = EvalBudget(limit=limit)
            return sim
        served = request.getfixturevalue("served")
        served.budget = EvalBudget(limit=limit)
        return served
    return make


BUDGET_CFG, BUDGET_SEED = SmcConfig(sample_count=20, smc_iterations=4), 6
STAGNANT_CFG, STAGNANT_SEED = SmcConfig(sample_count=20, smc_iterations=12, max_attempts=3), 7


def query_marks(sim, run) -> list[int]:
    """``sim.budget.used`` after each query ``run(sim)`` makes."""
    marks, query = [], sim.query_labels

    def recording(*args):
        labels = query(*args)
        marks.append(sim.budget.used)
        return labels

    sim.query_labels = recording
    try:
        run(sim)
    finally:
        del sim.query_labels
    return marks


def test_a_run_that_fits_a_budget_still_fits(criterion_task, labels_sim):
    # the per-iteration totals equal the sequential loop's, so its exact use
    # is enough, and one pair less is not
    args = (criterion_task.prior, criterion_task.train, BUDGET_CFG, BUDGET_SEED)
    reference = criterion_task.simulator(allow_logits=False)
    expected, used = reference_abc_smc(reference, *args), reference.budget.used
    sim = labels_sim(used)
    assert_same_run((abc_smc(sim, *args), sim.budget.used), (expected, used))
    with pytest.raises(BudgetExhaustedError):
        abc_smc(labels_sim(used - 1), *args)


def test_a_round_that_would_overrun_the_budget_is_refused_whole(criterion_task,
                                                                 labels_sim):
    args = (criterion_task.prior, criterion_task.train, BUDGET_CFG, BUDGET_SEED)
    marks = query_marks(criterion_task.simulator(allow_logits=False),
                        lambda sim: abc_smc(sim, *args))
    rounds = np.diff(marks)  # marks[0] is the initial tolerance query
    largest = int(np.argmax(rounds)) + 1
    assert rounds.max() > len(criterion_task.train)  # a round of several slots
    sim = labels_sim(marks[largest] - 1)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        abc_smc(sim, *args)
    assert sim.budget.used == marks[largest - 1]
    assert str(excinfo.value) == (f"evaluation budget exhausted: {marks[largest - 1]} used "
                                  f"+ {rounds.max()} requested > limit {marks[largest] - 1}")


def test_stagnation_names_the_slot_the_sequential_loop_names(criterion_task, labels_sim):
    args = (criterion_task.prior, criterion_task.train, STAGNANT_CFG, STAGNANT_SEED)
    reference = criterion_task.simulator(allow_logits=False)
    with pytest.raises(StagnationError) as expected:
        reference_abc_smc(reference, *args)
    sim = labels_sim()
    with pytest.raises(StagnationError) as excinfo:
        abc_smc(sim, *args)
    assert str(excinfo.value) == str(expected.value)
    assert str(expected.value).startswith("particle 2 ")
    # lock-step also spent attempts on the slots after particle 2
    assert sim.budget.used > reference.budget.used


def test_a_budget_can_run_out_before_stagnation(criterion_task, labels_sim):
    args = (criterion_task.prior, criterion_task.train, STAGNANT_CFG, STAGNANT_SEED)
    reference = criterion_task.simulator(allow_logits=False)
    with pytest.raises(StagnationError):
        reference_abc_smc(reference, *args)
    limit = reference.budget.used
    limited = criterion_task.simulator(allow_logits=False)
    limited.budget = EvalBudget(limit=limit)
    with pytest.raises(StagnationError):  # the sequential loop fits in that limit
        reference_abc_smc(limited, *args)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        abc_smc(labels_sim(limit), *args)
    assert str(excinfo.value).endswith(f"> limit {limit}")
