import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptuq.prompt_space import (PriorSpec, make_projection, prior_log_density,
                                   sample_prior)


def test_projection_shape_and_finiteness():
    matrix = make_projection(2, 4, seed=7)
    assert matrix.shape == (4, 2)
    assert np.isfinite(matrix).all()


def test_projection_deterministic_in_seed():
    a = make_projection(3, 10, seed=42)
    b = make_projection(3, 10, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_projection(3, 10, seed=43))


def test_projection_entry_variance_matches_one_over_d():
    # Pooled entries over many seeds are N(0, 1/2) samples at d=2; the
    # chi-square band on the sample variance of 8000 draws is far inside
    # [0.45, 0.55].
    entries = np.concatenate([
        make_projection(2, 4, seed=s).ravel() for s in range(1000)])
    assert 0.45 <= entries.var() <= 0.55


@pytest.mark.parametrize("d,D", [(0, 4), (4, 0), (5, 4)])
def test_projection_dimension_errors(d, D):
    with pytest.raises(ValueError):
        make_projection(d, D, seed=0)


def test_prior_requires_positive_sigma():
    with pytest.raises(ValueError):
        PriorSpec(2, 0.0)
    with pytest.raises(ValueError):
        PriorSpec(0, 1.0)
    # sigma^2 must be a positive finite float: no underflow to 0, no overflow
    for sigma in (1e-300, 1e300, 10 ** 400, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive finite square"):
            PriorSpec(2, sigma)
    assert PriorSpec(2, 1e-150).sigma ** 2 > 0


def test_sample_prior_count_zero_and_determinism():
    prior = PriorSpec(3, 2.0)
    assert sample_prior(prior, 0, np.random.default_rng(0)).shape == (0, 3)
    a = sample_prior(prior, 5, np.random.default_rng(7))
    b = sample_prior(prior, 5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_sample_prior_variance_sigma_50():
    draws = sample_prior(PriorSpec(1, 50.0), 10 ** 5, np.random.default_rng(3))
    assert 2375 <= draws.var() <= 2625


def test_sample_prior_mean_bound():
    prior = PriorSpec(4, 5.0)
    count = 20_000
    draws = sample_prior(prior, count, np.random.default_rng(5))
    assert (np.abs(draws.mean(axis=0)) <= 4 * prior.sigma / np.sqrt(count)).all()


def test_prior_log_density_analytic_values():
    prior = PriorSpec(1, 1.0)
    assert prior_log_density(prior, np.array([0.0])) == pytest.approx(
        -0.5 * np.log(2 * np.pi), abs=1e-12)
    assert prior_log_density(prior, np.array([1.0])) == pytest.approx(
        -0.5 * np.log(2 * np.pi) - 0.5, abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_prior_log_density_symmetry(seed):
    prior = PriorSpec(3, 7.0)
    z = np.random.default_rng(seed).normal(size=3) * 10
    assert prior_log_density(prior, z) == pytest.approx(
        prior_log_density(prior, -z), rel=1e-12)


def test_prior_density_integrates_to_one_1d():
    prior = PriorSpec(1, 2.5)
    grid = np.linspace(-8 * prior.sigma, 8 * prior.sigma, 20_001)
    values = np.exp([prior_log_density(prior, np.array([x])) for x in grid])
    assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-4)


def test_prior_log_density_dimension_mismatch():
    with pytest.raises(ValueError):
        prior_log_density(PriorSpec(2, 1.0), np.zeros(3))
