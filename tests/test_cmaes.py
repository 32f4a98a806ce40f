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
    """The state of a one-member run."""
    return es_init(np.asarray(mean0)[None], [sigma0], population_size, [seed])


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        one(np.zeros(3), 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        one(np.zeros(3), 1.0, 1, seed=0)


def test_init_state_shape():
    state = one(np.zeros(4), 2.0, 12, seed=0)
    assert np.array_equal(state.cov[0], np.eye(4))
    assert np.array_equal(state.path_sigma[0], np.zeros(4))
    assert state.generation == 0
    assert state.parents == 6
    assert state.weights.sum() == pytest.approx(1.0)


def test_ask_returns_population_without_losses():
    state = one(np.zeros(3), 1.0, 14, seed=1)
    xs = ask(state)
    assert xs.shape == (14, 3)
    assert np.isfinite(xs).all()


def test_ask_deterministic_in_seed():
    first = ask(one(np.zeros(3), 1.0, 8, seed=5))
    second = ask(one(np.zeros(3), 1.0, 8, seed=5))
    assert np.array_equal(first, second)


def test_ask_degenerate_spread_collapses_to_mean():
    state = one(np.full(3, 2.0), 1.0, 10, seed=2)
    state.step_size = np.array([1e-16])
    assert np.abs(ask(state) - state.mean).max() < 1e-6


def test_ask_empirical_covariance_matches_state():
    state = one(np.zeros(3), 0.7, 100_000, seed=3)
    base = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    state.cov = base[None]
    draws = ask(state)
    empirical = np.cov(draws.T)
    target = state.step_size ** 2 * base
    rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
    assert rel < 0.05


def _random_generation(state, rng):
    return ask(state), rng.normal(size=state.population_size)


def test_tell_preserves_invariants_over_many_generations():
    state = one(np.zeros(5), 1.0, 12, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(200):
        tell(state, *_random_generation(state, rng))
        assert state.step_size > 0
        assert np.abs(state.cov[0] - state.cov[0].T).max() < 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > 0


def test_tell_increments_generation():
    state = one(np.zeros(2), 1.0, 6, seed=5)
    tell(state, *_random_generation(state, np.random.default_rng(1)))
    assert state.generation == 1


def test_tell_permutation_invariant_bit_identical():
    state = one(np.zeros(4), 1.5, 10, seed=6)
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
    state = one(np.zeros(3), 1.0, 8, seed=9)
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
    state = one(np.zeros(2), 1.0, 4, seed=7)
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
    state = one(np.zeros(2), 1.0, 4, seed=7)
    xs = ask(state)
    with pytest.raises(EvaluationError):
        tell(state, xs[:-1], np.ones(3))
    with pytest.raises(EvaluationError):
        tell(state, xs[:, :1], np.ones(4))  # rows of the wrong dimension


def test_tell_ranks_like_a_stable_sort_on_loss_then_entries():
    rng = np.random.default_rng(15)
    for _ in range(50):
        state = one(np.zeros(3), 1.0, 12, seed=int(rng.integers(1000)))
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
    assert np.array_equal(result.best_x[0], ask(one(np.zeros(3), 1.0, 8, seed=8))[0])


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
    state = one(np.full(3, 1e308), 1e308, 4, seed=0)
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
    # (as span tracers do) see every generation, each one call for all members
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

    state = es_init(np.full((3, 3), 1.0), [0.5] * 3, 6, [16, 17, 18])
    result = minimize(objective, state, 7)
    assert result.history.shape == result.step_sizes.shape == (7, 3)
    assert rows == [3 * 6] * 7  # one objective call of E * lambda rows per generation
    assert calls == {"ask": 7, "tell": 7}


@st.composite
def lockstep_runs(draw):
    """The means, step sizes and seeds of E members of one small lambda and d."""
    members, dim, lam = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    seeds = st.integers(0, 2 ** 32)
    means = np.array([np.random.default_rng(draw(seeds)).normal(size=dim)
                      for _ in range(members)])
    sigmas = [draw(st.floats(0.1, 3.0)) for _ in range(members)]
    return means, sigmas, lam, [draw(seeds) for _ in range(members)], draw(st.integers(1, 6))


def assert_members_equal_their_solo_runs(state, together, solo_states, alone):
    for k, (solo_state, solo) in enumerate(zip(solo_states, alone)):
        assert np.array_equal(together.best_x[k], solo.best_x[0])
        assert together.best_loss[k] == solo.best_loss[0]
        assert np.array_equal(together.history[:, k], solo.history[:, 0])
        assert np.array_equal(together.step_sizes[:, k], solo.step_sizes[:, 0])
        assert np.array_equal(state.mean[k], solo_state.mean[0])
        assert np.array_equal(state.cov[k], solo_state.cov[0])
        assert state.step_size[k] == solo_state.step_size[0]


@settings(max_examples=40, deadline=None)
@given(lockstep_runs())
def test_a_lockstep_member_equals_its_run_alone_bit_for_bit(run):
    # an E-member state equals E one-member states
    means, sigmas, lam, seeds, generations = run
    state = es_init(means, sigmas, lam, seeds)
    solo_states = [one(mean, sigma, lam, seed) for mean, sigma, seed in zip(means, sigmas, seeds)]
    alone = [minimize(rowwise(rosenbrock), solo_state, generations) for solo_state in solo_states]
    together = minimize(rowwise(rosenbrock), state, generations)
    assert_members_equal_their_solo_runs(state, together, solo_states, alone)
    assert (together.best_loss == [rosenbrock(x) for x in together.best_x]).all()


def test_a_floor_repair_of_one_member_leaves_the_others_as_their_solo_runs(monkeypatch):
    # member 1's covariance is near-singular, so only its update needs the eigenvalue floor
    covs = [np.eye(3), np.diag([1.0, 1.0, 1e-24])]
    state = es_init(np.zeros((2, 3)), [1.0, 1.0], 6, [3, 4])
    state.cov = np.array(covs)
    solo_states = [one(np.zeros(3), 1.0, 6, seed=seed) for seed in (3, 4)]
    for solo_state, cov in zip(solo_states, covs):
        solo_state.cov = cov[None].copy()
    repaired = []
    decompose = cmaes._decompose

    def spy(cov, members):
        repaired.append(list(members))
        return decompose(cov, members)
    monkeypatch.setattr(cmaes, "_decompose", spy)
    together = minimize(rowwise(sphere), state, 3)
    assert [1] in repaired and [0] not in repaired  # (ask decomposes both as [0, 1])
    alone = [minimize(rowwise(sphere), solo_state, 3) for solo_state in solo_states]
    assert_members_equal_their_solo_runs(state, together, solo_states, alone)


def test_the_first_nonfinite_loss_names_the_lowest_member_of_its_generation():
    generations = []

    def objective(xs):
        generations.append(len(generations) + 1)
        losses = rowwise(sphere)(xs)
        if len(generations) == 2:  # members 1 and 2 (rows 4..7, 8..11) go bad
            losses[[4 + 3, 4 + 1, 8 + 0]] = [np.inf, np.nan, np.nan]
        return losses

    state = es_init(np.zeros((3, 2)), [1.0] * 3, 4, [0, 1, 2])
    with pytest.raises(EvaluationError,
                       match=r"^member 1: objective returned nan at candidate"):
        minimize(objective, state, 5)
    assert generations == [1, 2]
    assert state.generation == 1  # no member was told the bad losses


def test_a_member_whose_ask_diverges_stops_the_run_before_any_query():
    state = es_init([np.zeros(3), np.full(3, 1e308)], [1.0, 1e308], 4, [0, 0])
    calls = []
    with pytest.raises(NumericalBreakdownError, match="^member 1: .*not finite"):
        minimize(lambda xs: calls.append(xs) or rowwise(sphere)(xs), state, 3)
    assert calls == []


def test_a_member_whose_covariance_is_not_finite_stops_the_run_before_any_query():
    state = es_init(np.zeros((3, 3)), [1.0] * 3, 4, [0, 1, 2])
    state.cov[1, 0, 2] = state.cov[1, 2, 0] = np.inf  # a stacked eigh would fail every block
    calls = []
    with pytest.raises(NumericalBreakdownError, match="^member 1: "):
        minimize(lambda xs: calls.append(xs) or rowwise(sphere)(xs), state, 3)
    assert calls == []


@pytest.mark.parametrize("means, sigmas, seeds, match", [
    (np.zeros((0, 2)), [], [], "non-empty"),
    (np.zeros((2, 0)), [1.0, 1.0], [0, 1], "non-empty"),
    (np.zeros(2), [1.0], [0], "non-empty"),
    (np.zeros((2, 2)), [1.0], [0, 1], "one step size and one seed per mean"),
    (np.zeros((2, 2)), [1.0, 1.0], [0], "one step size and one seed per mean"),
    (np.zeros((2, 2)), [1.0, 1.0, 1.0], [0, 1, 2], "one step size and one seed per mean"),
    (np.zeros((2, 2)), [1.0, 0.0], [0, 1], "sigma0 must be positive"),
    (np.zeros((2, 2)), [-1.0, 1.0], [0, 1], "sigma0 must be positive"),
    (np.zeros((2, 2)), [1.0, np.nan], [0, 1], "sigma0 must be positive"),
])
def test_es_init_refuses_a_malformed_member_stack(means, sigmas, seeds, match):
    with pytest.raises(ValueError, match=match):
        es_init(means, sigmas, 4, seeds)
