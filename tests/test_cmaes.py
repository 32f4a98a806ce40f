import copy

import numpy as np
import pytest

from promptuq.cmaes import ask, es_init, minimize, tell
from promptuq.errors import EvaluationError


def sphere(x):
    return float(x @ x)


def rosenbrock(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
                     for i in range(len(x) - 1)))


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        es_init(np.zeros(3), 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        es_init(np.zeros(3), 1.0, 1, seed=0)


def test_init_state_shape():
    state = es_init(np.zeros(4), 2.0, 12, seed=0)
    assert np.array_equal(state.cov, np.eye(4))
    assert np.array_equal(state.path_sigma, np.zeros(4))
    assert state.generation == 0
    assert state.parents == 6
    assert state.weights.sum() == pytest.approx(1.0)


def test_ask_returns_population_without_losses():
    state = es_init(np.zeros(3), 1.0, 14, seed=1)
    candidates = ask(state)
    assert len(candidates) == 14
    assert all(c.loss is None for c in candidates)
    assert all(np.isfinite(c.x).all() for c in candidates)


def test_ask_deterministic_in_seed():
    first = np.array([c.x for c in ask(es_init(np.zeros(3), 1.0, 8, seed=5))])
    second = np.array([c.x for c in ask(es_init(np.zeros(3), 1.0, 8, seed=5))])
    assert np.array_equal(first, second)


def test_ask_degenerate_spread_collapses_to_mean():
    state = es_init(np.full(3, 2.0), 1.0, 10, seed=2)
    state.step_size = 1e-16
    for cand in ask(state):
        assert np.abs(cand.x - state.mean).max() < 1e-6


def test_ask_empirical_covariance_matches_state():
    state = es_init(np.zeros(3), 0.7, 100_000, seed=3)
    base = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    state.cov = base
    draws = np.array([c.x for c in ask(state)])
    empirical = np.cov(draws.T)
    target = state.step_size ** 2 * base
    rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
    assert rel < 0.05


def _random_generation(state, rng):
    candidates = ask(state)
    for cand in candidates:
        cand.loss = float(rng.normal())
    return candidates


def test_tell_preserves_invariants_over_many_generations():
    state = es_init(np.zeros(5), 1.0, 12, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        tell(state, _random_generation(state, rng))
        assert state.step_size > 0
        assert np.abs(state.cov - state.cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > 0


def test_tell_increments_generation():
    state = es_init(np.zeros(2), 1.0, 6, seed=5)
    tell(state, _random_generation(state, np.random.default_rng(1)))
    assert state.generation == 1


def test_tell_permutation_invariant_bit_identical():
    state = es_init(np.zeros(4), 1.5, 10, seed=6)
    rng = np.random.default_rng(2)
    candidates = _random_generation(state, rng)
    # duplicate losses on two candidates to exercise the tie-break
    candidates[3].loss = candidates[7].loss

    forward = copy.deepcopy(state)
    shuffled = copy.deepcopy(state)
    tell(forward, candidates)
    reordered = [candidates[i] for i in np.random.default_rng(3).permutation(10)]
    tell(shuffled, reordered)

    for field in ("mean", "cov", "path_sigma", "path_cov"):
        assert np.array_equal(getattr(forward, field), getattr(shuffled, field))
    assert forward.step_size == shuffled.step_size


def test_tell_rejects_missing_or_nonfinite_losses():
    state = es_init(np.zeros(2), 1.0, 4, seed=7)
    candidates = ask(state)
    with pytest.raises(EvaluationError):
        tell(state, candidates)  # losses unset
    for cand in candidates:
        cand.loss = 1.0
    candidates[0].loss = float("nan")
    with pytest.raises(EvaluationError):
        tell(state, candidates)


def test_tell_rejects_wrong_candidate_count():
    state = es_init(np.zeros(2), 1.0, 4, seed=7)
    candidates = ask(state)
    for cand in candidates:
        cand.loss = 1.0
    with pytest.raises(EvaluationError):
        tell(state, candidates[:-1])


def test_minimize_constant_objective():
    result = minimize(lambda x: 3.25, np.zeros(3), 1.0, 8, 5, seed=8)
    assert result.best_loss == 3.25
    assert result.evaluations == 8 * 5


def test_minimize_history_monotone_nonincreasing():
    result = minimize(sphere, np.full(4, 2.0), 1.0, 10, 40, seed=9)
    history = np.array(result.history)
    assert (np.diff(history) <= 0).all()
    assert len(history) == result.generations


def test_minimize_counts_objective_calls_exactly():
    calls = []

    def counted(x):
        calls.append(1)
        return sphere(x)

    result = minimize(counted, np.full(3, 1.0), 0.5, 6, 25, seed=10)
    assert len(calls) == result.evaluations == 6 * result.generations


def test_minimize_propagates_nonfinite_objective():
    def bad(x):
        return float("inf")

    with pytest.raises(EvaluationError):
        minimize(bad, np.zeros(2), 1.0, 4, 3, seed=11)


def test_minimize_sphere_converges():
    result = minimize(sphere, np.full(5, 3.0), 1.0, 20, 300, seed=12,
                      target_loss=1e-9)
    assert result.best_loss < 1e-8


def test_minimize_rosenbrock_converges():
    result = minimize(rosenbrock, np.zeros(5), 0.5, 20, 300, seed=12,
                      target_loss=1e-7)
    assert result.best_loss < 1e-6


def test_trajectories_deterministic_for_identical_seeds():
    r1 = minimize(sphere, np.full(3, 2.0), 1.0, 8, 30, seed=14)
    r2 = minimize(sphere, np.full(3, 2.0), 1.0, 8, 30, seed=14)
    assert r1.history == r2.history
    assert np.array_equal(r1.best_x, r2.best_x)
