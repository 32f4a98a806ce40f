
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_uniform_simulator
from promptuq import cmaes
from promptuq.blackbox import LabeledSet
from promptuq.errors import AccessDeniedError, EvaluationError
from promptuq.estimators import (EnsembleConfig, EsConfig, GfviConfig, PosteriorEnsemble,
                                 _decode_search_matrix, derive_seeds, elbo_estimate,
                                 ensemble_tune, gfvi_tune, kl_diag_gaussian_to_prior,
                                 load_ensemble, negative_log_likelihood,
                                 point_estimate, save_ensemble)
from promptuq.prompt_space import PriorSpec, sample_prior

FAST_ES = EsConfig(population_size=8, max_generations=30)


def test_es_config_defaults_match_standard_budget():
    es = EsConfig()
    assert es.population_size == 20
    assert es.max_generations == 300


def test_nll_uniform_simulator(uniform_sim, uniform_dataset):
    value = negative_log_likelihood(uniform_sim, np.zeros(4), uniform_dataset)[0]
    assert value == pytest.approx(4 * np.log(2), abs=1e-12)


def test_nll_empty_dataset(uniform_sim):
    empty = LabeledSet(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    assert negative_log_likelihood(uniform_sim, np.zeros(4), empty)[0] == 0.0


def test_nll_matches_brute_force_recomputation(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(0)
    z = rng.normal(size=8) * 50
    value = negative_log_likelihood(sim, z, criterion_task.train)[0]
    probs = sim.query_logits(z, criterion_task.train.X)
    expected = 0.0
    for i, label in enumerate(criterion_task.train.y):
        expected -= np.log(max(probs[i, label], 1e-12))
    assert value == pytest.approx(expected, abs=1e-9)


def test_nll_requires_logits_access(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    with pytest.raises(AccessDeniedError):
        negative_log_likelihood(sim, np.zeros(8), criterion_task.train)


def test_point_estimate_contract(criterion_task):
    sim = criterion_task.simulator()
    es = EsConfig(population_size=10, max_generations=40)
    result = point_estimate(sim, criterion_task.prior, criterion_task.train, es,
                            seed=3)
    assert result.size == 1
    assert result.weights[0] == 1.0
    assert result.provenance == "point_estimate"
    assert sim.budget.used <= 10 * 40 * len(criterion_task.train)

    baseline_rng = np.random.default_rng(17)
    baseline = min(
        negative_log_likelihood(sim, z, criterion_task.train)[0]
        for z in sample_prior(criterion_task.prior, 20, baseline_rng))
    assert result.diagnostics["final_nll"] <= baseline


def test_ensemble_member_k_is_the_point_estimate_at_its_derived_seed(criterion_task):
    config = EnsembleConfig(population_size=8, max_generations=30, sample_count=3)
    result = ensemble_tune(criterion_task.simulator(), criterion_task.prior,
                           criterion_task.train, config, seed=5)
    assert result.size == 3
    assert np.allclose(result.weights, 1 / 3)
    for k, member_seed in enumerate(derive_seeds(5, 3)):
        point = point_estimate(criterion_task.simulator(), criterion_task.prior,
                               criterion_task.train, FAST_ES, seed=member_seed)
        assert np.array_equal(result.samples[k], point.samples[0])
    assert len({member.tobytes() for member in result.samples}) == 3


def test_ensemble_matches_point_estimate_for_single_seed(criterion_task):
    # An EsConfig has sample_count 1: a one-member ensemble at its derived seed.
    single = ensemble_tune(criterion_task.simulator(), criterion_task.prior,
                           criterion_task.train, FAST_ES, seed=5)
    point = point_estimate(criterion_task.simulator(), criterion_task.prior,
                           criterion_task.train, FAST_ES, seed=derive_seeds(5, 1)[0])
    assert single.size == 1
    assert np.array_equal(single.samples[0], point.samples[0])


def test_ensemble_identical_seeds_give_identical_members(criterion_task):
    config = EnsembleConfig(population_size=8, max_generations=30, sample_count=3)
    first, second = (ensemble_tune(criterion_task.simulator(), criterion_task.prior,
                                   criterion_task.train, config, seed=9)
                     for _ in range(2))
    assert all(np.array_equal(a, b) for a, b in zip(first.samples, second.samples))
    assert not np.array_equal(first.samples[0], first.samples[1])
    assert np.allclose(first.weights, 1 / 3)


def test_kl_analytic_values():
    prior = PriorSpec(1, 3.0)
    sigma2 = prior.sigma ** 2
    at_prior = (np.zeros((1, 1)), np.array([[np.log(sigma2)]]))
    assert kl_diag_gaussian_to_prior(*at_prior, prior)[0] == pytest.approx(0.0, abs=1e-12)

    shifted = (np.array([[prior.sigma]]), np.array([[np.log(sigma2)]]))
    assert kl_diag_gaussian_to_prior(*shifted, prior)[0] == pytest.approx(0.5, abs=1e-12)

    inflated = (np.zeros((1, 1)), np.array([[np.log(sigma2 * np.e)]]))
    assert kl_diag_gaussian_to_prior(*inflated, prior)[0] == pytest.approx(
        (np.e - 2) / 2, abs=1e-12)


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        kl_diag_gaussian_to_prior(np.zeros((1, 2)), np.zeros((1, 2)), PriorSpec(3, 1.0))


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_kl_nonnegative_random_params(seed):
    rng = np.random.default_rng(seed)
    prior = PriorSpec(3, float(rng.uniform(0.5, 60)))
    mu = rng.normal(size=(1, 3)) * prior.sigma
    log_alpha = rng.normal(size=(1, 3)) + 2 * np.log(prior.sigma)
    value = kl_diag_gaussian_to_prior(mu, log_alpha, prior)[0]
    assert value >= 0.0
    at_optimum = (np.allclose(mu, 0)
                  and np.allclose(np.exp(log_alpha), prior.sigma ** 2))
    if value == 0.0:
        assert at_optimum


def test_elbo_uniform_simulator_exact(uniform_sim, uniform_dataset, wide_prior):
    at_prior = (np.zeros((1, 4)), np.full((1, 4), 2 * np.log(50.0)))
    value = elbo_estimate(*at_prior, uniform_sim, wide_prior, uniform_dataset,
                          mc_samples=7, streams=[np.random.default_rng(0)])[0]
    assert value == pytest.approx(-4 * np.log(2), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_elbo_uniform_simulator_any_q(seed):
    # likelihood is constant, so the estimator equals -N ln C - KL exactly
    sim = build_uniform_simulator()
    dataset = LabeledSet(np.random.default_rng(0).normal(size=(4, 4)),
                         np.zeros(4, dtype=np.int64))
    prior = PriorSpec(4, 50.0)
    rng = np.random.default_rng(seed)
    params = (rng.normal(size=(1, 4)) * 20, rng.normal(size=(1, 4)) + 2 * np.log(50.0))
    value = elbo_estimate(*params, sim, prior, dataset, mc_samples=3, streams=[rng])[0]
    kl = kl_diag_gaussian_to_prior(*params, prior)[0]
    assert value == pytest.approx(-4 * np.log(2) - kl, abs=1e-9)
    assert value <= -4 * np.log(2) + 1e-12


def test_elbo_large_mc_limit(uniform_sim, uniform_dataset, wide_prior):
    params = (np.full((1, 4), 10.0), np.full((1, 4), 2 * np.log(20.0)))
    value = elbo_estimate(*params, uniform_sim, wide_prior, uniform_dataset,
                          mc_samples=10_000, streams=[np.random.default_rng(1)])[0]
    expected = -4 * np.log(2) - kl_diag_gaussian_to_prior(*params, wide_prior)[0]
    assert value == pytest.approx(expected, abs=1e-2)


def test_elbo_deterministic_given_rng_seed(criterion_task):
    sim = criterion_task.simulator()
    params = (np.zeros((1, 8)), np.full((1, 8), 2 * np.log(50.0)))
    a = elbo_estimate(*params, sim, criterion_task.prior, criterion_task.train,
                      10, [np.random.default_rng(5)])
    b = elbo_estimate(*params, sim, criterion_task.prior, criterion_task.train,
                      10, [np.random.default_rng(5)])
    assert a == b


def test_elbo_mc_variance_scaling(criterion_task):
    sim = criterion_task.simulator()
    params = (np.zeros((1, 8)), np.full((1, 8), 2 * np.log(50.0)))

    def spread(mc):
        values = [elbo_estimate(*params, sim, criterion_task.prior,
                                criterion_task.train, mc,
                                [np.random.default_rng(s)])[0] for s in range(100)]
        return np.std(values)

    ratio = spread(10) / spread(100)
    assert 2.2 <= ratio <= 4.5  # sqrt(10) up to sampling error


def test_decode_search_vector_always_positive_alpha():
    prior = PriorSpec(3, 50.0)
    assert np.array_equal(_decode_search_matrix(np.zeros((1, 6)), prior)[0], np.zeros((1, 3)))
    for u in (np.full(6, 30.0), np.full(6, -30.0), np.array([0, 0, 0, -700, 0, 700.0])):
        _, log_alpha = _decode_search_matrix(u[None], prior)
        assert (np.exp(log_alpha) > 0).all()


def test_decode_search_vector_refuses_an_infinite_mean():
    with pytest.raises(EvaluationError, match="mean"):
        _decode_search_matrix(np.array([[1e308, 0, 0, 0, 0, 0.0]]), PriorSpec(3, 50.0))


def test_gfvi_returns_requested_samples_and_trace(uniform_sim, uniform_dataset,
                                                  wide_prior):
    result = gfvi_tune(uniform_sim, wide_prior, uniform_dataset,
                       GfviConfig(population_size=8, max_generations=25,
                                  mc_samples=5, sample_count=100), seed=2)
    assert result.size == 100
    assert np.allclose(result.weights, 0.01)
    assert result.provenance == "variational_inference"

    assert result.trace["generation"] == list(range(1, 26))
    best = result.trace["best_elbo"]
    assert len(best) == 25
    assert (np.diff(best) >= 0).all()


def test_gfvi_uniform_simulator_recovers_prior(uniform_sim, uniform_dataset,
                                               wide_prior):
    result = gfvi_tune(uniform_sim, wide_prior, uniform_dataset,
                       GfviConfig(population_size=20, max_generations=120,
                                  mc_samples=5, sample_count=50), seed=3)
    assert result.diagnostics["final_kl"] < 0.5
    assert result.diagnostics["best_elbo"] <= -4 * np.log(2) + 1e-9


def test_gfvi_matches_a_candidate_by_candidate_reference(criterion_task):
    # candidate k of generation g draws from its own (1, g * population + k)
    # substream and sums its Monte-Carlo terms in draw order, one z at a time;
    # the oracle decodes, queries and takes the KL by hand
    sim, train, prior = criterion_task.simulator(), criterion_task.train, criterion_task.prior
    config = GfviConfig(population_size=6, max_generations=4, mc_samples=10, sample_count=5)
    result = gfvi_tune(sim, prior, train, config, seed=9)
    counter = itertools.count()
    d, var, rows = prior.dim, prior.sigma ** 2, np.arange(len(train))

    def negative_elbo(u):
        stream = np.random.default_rng(
            np.random.SeedSequence(9, spawn_key=(1, next(counter))))
        mu, alpha = prior.sigma * u[:d], np.exp(2.0 * np.log(prior.sigma) + u[d:])
        total = 0.0
        for z in mu + np.sqrt(alpha) * stream.standard_normal((10, d)):
            probs = sim.query_logits(z[None], train.X)
            total += np.log(np.maximum(probs[rows, train.y], 1e-12)).sum()
        kl = 0.5 * (alpha / var + mu ** 2 / var - 1.0 + np.log(var / alpha)).sum()
        return -(total / 10 - kl)

    reference = cmaes.minimize(
        lambda us: np.array([negative_elbo(u) for u in us]),
        cmaes.es_init(np.zeros((1, 2 * prior.dim)), [config.search_step], 6,
                      [int(np.random.default_rng(
                          np.random.SeedSequence(9, spawn_key=(0,))).integers(2 ** 63))]), 4)
    assert result.trace["best_elbo"] == [-v for v in reference.history[:, 0]]
    assert result.diagnostics["best_elbo"] == -reference.best_loss[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_an_elbo_row_equals_its_one_row_call_bit_for_bit(criterion_task, rows, k, mc_samples,
                                                         seed):
    k = k % rows
    sim, prior = criterion_task.simulator(), criterion_task.prior
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(rows, prior.dim)) * prior.sigma
    log_alpha = rng.normal(size=(rows, prior.dim)) + 2 * np.log(prior.sigma)

    def streams(keys):
        return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
                for j in keys]

    batch = elbo_estimate(mu, log_alpha, sim, prior, criterion_task.train, mc_samples,
                          streams(range(rows)))
    alone = elbo_estimate(mu[k:k + 1], log_alpha[k:k + 1], sim, prior,
                          criterion_task.train, mc_samples, streams([k]))
    assert batch.shape == (rows,) and alone.shape == (1,)
    assert batch[k] == alone[0]


def test_gfvi_refuses_a_generation_that_decodes_to_no_distribution_before_any_charge(
        criterion_task):
    sim = criterion_task.simulator()
    with pytest.raises(EvaluationError, match="candidate 0: the mean"):
        gfvi_tune(sim, criterion_task.prior, criterion_task.train,
                  GfviConfig(population_size=4, max_generations=2, search_step=1e300), seed=0)
    assert sim.budget.used == 0
    # the error names the first row that does not decode
    us = np.zeros((3, 6))
    us[2, 4] = 1e300
    with pytest.raises(EvaluationError, match="candidate 2: the mean"):
        _decode_search_matrix(us, PriorSpec(3, 50.0))


def test_gfvi_deterministic(uniform_sim, uniform_dataset, wide_prior):
    kwargs = dict(config=GfviConfig(population_size=6, max_generations=10,
                                    mc_samples=3, sample_count=9), seed=11)
    a = gfvi_tune(uniform_sim, wide_prior, uniform_dataset, **kwargs)
    b = gfvi_tune(uniform_sim, wide_prior, uniform_dataset, **kwargs)
    assert np.array_equal(a.samples, b.samples)


def test_posterior_ensemble_validation():
    with pytest.raises(ValueError):
        PosteriorEnsemble(np.zeros((2, 3)), np.array([0.7, 0.7]), "ensembles")
    with pytest.raises(ValueError):
        PosteriorEnsemble(np.zeros((2, 3)), np.array([1.5, -0.5]), "ensembles")
    with pytest.raises(ValueError):
        PosteriorEnsemble(np.zeros((0, 3)), np.zeros(0), "ensembles")
    with pytest.raises(ValueError, match="finite"):
        PosteriorEnsemble(np.array([[np.nan, 0.0]]), np.array([1.0]), "loaded")
    with pytest.raises(ValueError, match="finite"):
        PosteriorEnsemble(np.zeros((2, 2)), np.array([np.nan, 1.0]), "loaded")


def test_ensemble_ndjson_roundtrip(tmp_path):
    ensemble = PosteriorEnsemble(np.arange(12.0).reshape(4, 3),
                                 np.array([0.1, 0.2, 0.3, 0.4]), "abc_smc",
                                 diagnostics={"ess": 3.0})
    path = tmp_path / "posterior.ndjson"
    save_ensemble(ensemble, path)
    loaded = load_ensemble(path)
    assert np.array_equal(loaded.samples, ensemble.samples)
    assert np.allclose(loaded.weights, ensemble.weights)


@pytest.mark.parametrize("record", [
    "[0.5, 1.0]",                                       # not an object
    '"weight"',
    '{"z": [0.5, 0.5]}',                                # no weight
    '{"weight": 1.0}',                                  # no z
    '{"weight": 1.0, "z": [1%s, 0.5]}' % ("0" * 400),   # beyond the float range
    '{"weight": 1%s, "z": [0.5, 0.5]}' % ("0" * 400),
    '{"weight": true, "z": [0.5, 0.5]}',
    '{"weight": 1.0, "z": [[0.5], [0.5]]}',
    '{"weight": 1.0, "z": ["0.5", 0.5]}',
    '{"weight": 1.0, "z": [0.5, 0.5]',                  # not JSON
    "[" * 100_000,                                      # nested too deeply to parse
], ids=["list", "string", "no-weight", "no-z", "huge-z", "huge-weight", "bool-weight",
        "nested-z", "string-z", "not-json", "deep"])
def test_load_ensemble_names_the_line_of_a_malformed_record(tmp_path, record):
    path = tmp_path / "posterior.ndjson"
    path.write_text('{"index": 0, "weight": 0.5, "z": [0.5, 0.5]}\n\n' + record + "\n")
    with pytest.raises(ValueError, match="^line 3: "):
        load_ensemble(path)


def test_derive_seeds_stable():
    assert derive_seeds(7, 4) == derive_seeds(7, 4)
    assert derive_seeds(7, 4) != derive_seeds(8, 4)
