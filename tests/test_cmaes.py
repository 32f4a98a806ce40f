import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptuq import cmaes
from promptuq.cmaes import ask, es_init, minimize, tell
from promptuq.errors import EvaluationError, NumericalBreakdownError


def sphere(x):
    return float(x @ x)


def rosenbrock(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
                     for i in range(len(x) - 1)))


def rowwise(f):
    """The batched objective ``minimize`` takes, from a vector-to-scalar ``f``."""
    return lambda xs: np.array([f(x) for x in xs])


def one(mean0, sigma0, population_size, seed):
    """The member list of a one-member run."""
    return [es_init(mean0, sigma0, population_size, seed)]


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
    xs = ask(state)
    assert xs.shape == (14, 3)
    assert np.isfinite(xs).all()


def test_ask_deterministic_in_seed():
    first = ask(es_init(np.zeros(3), 1.0, 8, seed=5))
    second = ask(es_init(np.zeros(3), 1.0, 8, seed=5))
    assert np.array_equal(first, second)


def test_ask_degenerate_spread_collapses_to_mean():
    state = es_init(np.full(3, 2.0), 1.0, 10, seed=2)
    state.step_size = 1e-16
    assert np.abs(ask(state) - state.mean).max() < 1e-6


def test_ask_empirical_covariance_matches_state():
    state = es_init(np.zeros(3), 0.7, 100_000, seed=3)
    base = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    state.cov = base
    draws = ask(state)
    empirical = np.cov(draws.T)
    target = state.step_size ** 2 * base
    rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
    assert rel < 0.05


def _random_generation(state, rng):
    return ask(state), rng.normal(size=state.population_size)


def test_tell_preserves_invariants_over_many_generations():
    state = es_init(np.zeros(5), 1.0, 12, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        tell(state, *_random_generation(state, rng))
        assert state.step_size > 0
        assert np.abs(state.cov - state.cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > 0


def test_tell_increments_generation():
    state = es_init(np.zeros(2), 1.0, 6, seed=5)
    tell(state, *_random_generation(state, np.random.default_rng(1)))
    assert state.generation == 1


def test_tell_permutation_invariant_bit_identical():
    state = es_init(np.zeros(4), 1.5, 10, seed=6)
    rng = np.random.default_rng(2)
    xs, losses = _random_generation(state, rng)
    # duplicate losses on two candidates to exercise the tie-break
    losses[3] = losses[7]

    forward = copy.deepcopy(state)
    shuffled = copy.deepcopy(state)
    tell(forward, xs, losses)
    order = np.random.default_rng(3).permutation(10)
    tell(shuffled, xs[order], losses[order])

    for field in ("mean", "cov", "path_sigma", "path_cov"):
        assert np.array_equal(getattr(forward, field), getattr(shuffled, field))
    assert forward.step_size == shuffled.step_size


def test_tell_without_a_fresh_ask_decomposes_the_current_covariance():
    # ask leaves its decomposition for the next tell; a tell with no ask since
    # the last update must not reuse the decomposition of an older covariance
    state = es_init(np.zeros(3), 1.0, 8, seed=9)
    rng = np.random.default_rng(4)
    tell(state, *_random_generation(state, rng))
    asked = copy.deepcopy(state)
    xs, losses = _random_generation(asked, rng)
    tell(state, xs, losses)
    tell(asked, xs, losses)
    for field in ("mean", "cov", "path_sigma", "path_cov"):
        assert np.array_equal(getattr(state, field), getattr(asked, field))
    assert state.step_size == asked.step_size


def test_tell_rejects_missing_or_nonfinite_losses():
    state = es_init(np.zeros(2), 1.0, 4, seed=7)
    xs = ask(state)
    with pytest.raises(EvaluationError):
        tell(state, xs, np.ones(3))  # one loss missing
    for bad in (float("nan"), float("inf"), -float("inf")):
        losses = np.ones(4)
        losses[0] = bad
        with pytest.raises(EvaluationError):
            tell(state, xs, losses)
    assert state.generation == 0


def test_tell_rejects_wrong_candidate_count():
    state = es_init(np.zeros(2), 1.0, 4, seed=7)
    xs = ask(state)
    with pytest.raises(EvaluationError):
        tell(state, xs[:-1], np.ones(3))
    with pytest.raises(EvaluationError):
        tell(state, xs[:, :1], np.ones(4))  # rows of the wrong dimension


def test_tell_ranks_like_a_stable_sort_on_loss_then_entries():
    rng = np.random.default_rng(15)
    for _ in range(50):
        state = es_init(np.zeros(3), 1.0, 12, seed=int(rng.integers(1000)))
        xs = ask(state)
        xs[::3, 0] = xs[0, 0]  # rows that tie on the first entry
        xs[5] = xs[2]          # two identical rows
        losses = rng.integers(0, 3, size=12).astype(float)  # many tied losses
        order = sorted(range(12), key=lambda i: (losses[i], tuple(xs[i])))
        expected = copy.deepcopy(state)
        selected = xs[order[:state.parents]]
        steps = (selected - expected.mean) / expected.step_size
        tell(state, xs, losses)
        assert np.array_equal(state.mean, expected.mean
                              + expected.step_size * (expected.weights @ steps))


def test_minimize_constant_objective():
    result = minimize(rowwise(lambda x: 3.25), one(np.zeros(3), 1.0, 8, seed=8), 5)
    assert result.best_loss == 3.25
    assert len(result.history) == 5


def test_minimize_keeps_the_first_of_tied_best_candidates():
    result = minimize(rowwise(lambda x: 3.25), one(np.zeros(3), 1.0, 8, seed=8), 5)
    assert np.array_equal(result.best_x[0], ask(es_init(np.zeros(3), 1.0, 8, seed=8))[0])


def test_minimize_history_monotone_nonincreasing():
    result = minimize(rowwise(sphere), one(np.full(4, 2.0), 1.0, 10, seed=9), 40)
    history = result.history
    assert (np.diff(history, axis=0) <= 0).all()
    assert history.shape == (40, 1)


def test_minimize_counts_objective_calls_exactly():
    calls = []

    def counted(x):
        calls.append(1)
        return sphere(x)

    result = minimize(rowwise(counted), one(np.full(3, 1.0), 0.5, 6, seed=10), 25)
    assert len(calls) == 6 * len(result.history) == 6 * 25


def test_minimize_propagates_nonfinite_objective():
    def bad(x):
        return float("inf")

    with pytest.raises(EvaluationError):
        minimize(rowwise(bad), one(np.zeros(2), 1.0, 4, seed=11), 3)
    # the first non-finite loss is named, and a loss vector must match the rows
    with pytest.raises(EvaluationError, match="nan at candidate"):
        minimize(lambda xs: np.array([1.0, np.nan, np.inf, 2.0]),
                 one(np.zeros(2), 1.0, 4, seed=11), 3)
    with pytest.raises(EvaluationError, match="shape"):
        minimize(lambda xs: np.zeros(len(xs) + 1), one(np.zeros(2), 1.0, 4, seed=11), 3)


def test_ask_refuses_a_population_past_the_float_range():
    state = es_init(np.full(3, 1e308), 1e308, 4, seed=0)
    with pytest.raises(NumericalBreakdownError, match="not finite"):
        ask(state)


def test_minimize_sphere_converges():
    result = minimize(rowwise(sphere), one(np.full(5, 3.0), 1.0, 20, seed=12), 300)
    assert result.best_loss < 1e-8


def test_minimize_rosenbrock_converges():
    result = minimize(rowwise(rosenbrock), one(np.zeros(5), 0.5, 20, seed=12), 300)
    assert result.best_loss < 1e-6


def test_trajectories_deterministic_for_identical_seeds():
    r1 = minimize(rowwise(sphere), one(np.full(3, 2.0), 1.0, 8, seed=14), 30)
    r2 = minimize(rowwise(sphere), one(np.full(3, 2.0), 1.0, 8, seed=14), 30)
    assert np.array_equal(r1.history, r2.history)
    assert np.array_equal(r1.best_x, r2.best_x)


def test_minimize_calls_ask_and_tell_once_per_generation(monkeypatch):
    # ask and tell are looked up on the module, so wrappers installed there
    # (as span tracers do) see every member of every generation
    calls = {"ask": 0, "tell": 0}

    def counted(name):
        original = getattr(cmaes, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cmaes, name, counted(name))
    rows = []

    def objective(xs):
        rows.append(len(xs))
        return rowwise(sphere)(xs)

    states = [es_init(np.full(3, 1.0), 0.5, 6, seed=16 + k) for k in range(3)]
    result = minimize(objective, states, 7)
    assert result.history.shape == result.step_sizes.shape == (7, 3)
    assert rows == [3 * 6] * 7  # one objective call of E * lambda rows per generation
    assert calls == {"ask": 3 * 7, "tell": 3 * 7}


@st.composite
def lockstep_runs(draw):
    """E member states of one small lambda and d, each from its own seeds."""
    members, dim, lam = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    seeds = st.integers(0, 2 ** 32)
    states = [es_init(np.random.default_rng(draw(seeds)).normal(size=dim),
                      draw(st.floats(0.1, 3.0)), lam, draw(seeds))
              for _ in range(members)]
    return states, draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(lockstep_runs())
def test_a_lockstep_member_equals_its_run_alone_bit_for_bit(run):
    states, generations = run
    solo_states = copy.deepcopy(states)
    alone = [minimize(rowwise(rosenbrock), [state], generations) for state in solo_states]
    together = minimize(rowwise(rosenbrock), states, generations)
    for k, (state, solo_state, solo) in enumerate(zip(states, solo_states, alone)):
        assert np.array_equal(together.best_x[k], solo.best_x[0])
        assert together.best_loss[k] == solo.best_loss[0] == rosenbrock(solo.best_x[0])
        assert np.array_equal(together.history[:, k], solo.history[:, 0])
        assert np.array_equal(together.step_sizes[:, k], solo.step_sizes[:, 0])
        assert np.array_equal(state.mean, solo_state.mean)
        assert np.array_equal(state.cov, solo_state.cov)
        assert state.step_size == solo_state.step_size


def test_the_first_nonfinite_loss_names_the_lowest_member_of_its_generation():
    generations = []

    def objective(xs):
        generations.append(len(generations) + 1)
        losses = rowwise(sphere)(xs)
        if len(generations) == 2:  # members 1 and 2 (rows 4..7, 8..11) go bad
            losses[[4 + 3, 4 + 1, 8 + 0]] = [np.inf, np.nan, np.nan]
        return losses

    states = [es_init(np.zeros(2), 1.0, 4, seed=k) for k in range(3)]
    with pytest.raises(EvaluationError,
                       match=r"^member 1: objective returned nan at candidate"):
        minimize(objective, states, 5)
    assert generations == [1, 2]
    assert [state.generation for state in states] == [1, 1, 1]  # none told the bad losses


def test_a_member_whose_ask_diverges_stops_the_run_before_any_query():
    states = [es_init(np.zeros(3), 1.0, 4, seed=0),
              es_init(np.full(3, 1e308), 1e308, 4, seed=0)]
    calls = []
    with pytest.raises(NumericalBreakdownError, match="^member 1: .*not finite"):
        minimize(lambda xs: calls.append(xs) or rowwise(sphere)(xs), states, 3)
    assert calls == []


@pytest.mark.parametrize("sizes, match", [
    ([], "^need at least one member state"),
    ([2, 3], "^member 1: population_size 3 differs from member 0's 2"),
    ([2, 4], "^member 1: population_size 4 differs from member 0's 2"),
    ([4, 4, 2], "^member 2: population_size 2 differs from member 0's 4"),
])
def test_minimize_refuses_members_before_the_first_ask(sizes, match):
    states = [es_init(np.zeros(2), 1.0, lam, seed=k) for k, lam in enumerate(sizes)]
    calls = []
    with pytest.raises(ValueError, match=match):
        minimize(lambda xs: calls.append(xs) or rowwise(sphere)(xs), states, 3)
    assert calls == []
    assert all(state.eigen is None for state in states)  # no member was asked
