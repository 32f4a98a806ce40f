"""Likelihood-free inference over the prompt subspace.

Only discrete labels are observable here, so posterior mass is located by
comparing simulated labels against the observed ones with a plain error-rate
distance. Two methods:

* ``rejection_abc``: accept prior draws whose simulated labels land strictly
  inside the tolerance (by default the error rate of one prior draw).
* ``abc_smc``: one schedule loop over t = 1..smc_iterations; the tolerance
  starts at that same value and shrinks by 1/N per iteration until it would
  reach zero. Each particle slot draws from its own (seed, t, slot) stream
  until a proposal is within tolerance: a prior draw at t = 1, later a
  weighted resample of the previous particles perturbed by a diagonal
  Gaussian kernel. The slots still waiting move in lock-step rounds, one
  labels query per round, so every slot makes exactly the draws and attempts
  of a slot-by-slot loop. Weights are uniform at t = 1, then importance
  ratios of prior to mixture proposal density in log space (one row per new
  particle over the M previous ones: O(N*M*d) work, an (M, d) temporary per
  row), or forced uniform to sidestep weight degeneracy.

Acceptance comparisons: rejection sampling (and iteration one) accepts on
distance < epsilon; SMC iterations t >= 2 accept on distance <= epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackbox import LabeledSet
from .errors import (BudgetExhaustedError, ConfigError, DegenerateWeightsError,
                     NumericalBreakdownError, StagnationError, check_positive)
from .estimators import ABC_SMC, REJECTION_ABC, PosteriorEnsemble
from .prompt_space import PriorSpec, prior_log_density, sample_prior, substream

WEIGHT_IMPORTANCE = "importance"
WEIGHT_UNIFORM = "uniform"


@dataclass(frozen=True)
class RejectionConfig:
    sample_count: int = 100
    epsilon: float | None = None  # None: the error rate of one prior draw
    max_draws: int = 100_000

    def __post_init__(self):
        check_positive(self, "sample_count", "epsilon", "max_draws")
        if self.epsilon is not None and self.epsilon > 1.0:
            raise ConfigError("epsilon", "must be at most 1")


@dataclass(frozen=True)
class SmcConfig:
    sample_count: int = 100  # particles
    smc_iterations: int = 10
    weight_scheme: str = WEIGHT_IMPORTANCE
    max_attempts: int = 10_000  # proposals per particle and iteration
    variance_floor: float = 1e-8  # per coordinate, on the perturbation kernel

    def __post_init__(self):
        check_positive(self, "sample_count", "smc_iterations", "max_attempts",
                       "variance_floor")
        if self.weight_scheme not in (WEIGHT_IMPORTANCE, WEIGHT_UNIFORM):
            raise ConfigError("weight_scheme",
                              f"must be '{WEIGHT_IMPORTANCE}' or '{WEIGHT_UNIFORM}'")


def distance_error_rate(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Fraction of positions where each row of a (K, n) label matrix disagrees
    with the n labels, as a (K,) array.

    A mismatch count divided by n is exact, so a row's value does not depend
    on the other rows.
    """
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.ndim != 2 or actual.ndim != 1 or predicted.shape[1:] != actual.shape:
        raise ValueError("need a (K, n) label matrix and n labels")
    if len(actual) == 0:
        raise ValueError("label lists must be nonempty")
    return np.count_nonzero(predicted != actual, axis=1) / len(actual)


def initial_tolerance(sim, prior: PriorSpec, dataset: LabeledSet,
                      rng: np.random.Generator) -> float:
    """Error rate of a single arbitrary prior draw against the dataset labels."""
    labels = sim.query_labels(sample_prior(prior, 1, rng), dataset.X).reshape(1, -1)
    return float(distance_error_rate(labels, dataset.y)[0])


def _nonzero(epsilon: float) -> float:
    """A first tolerance of 0 accepts nothing on a strict ``<``: stop before
    the first proposal rather than spend every attempt."""
    if epsilon == 0.0:
        raise StagnationError("the initial tolerance is 0, which no proposal can "
                              "strictly beat")
    return epsilon


def decay_tolerance(epsilon: float, n: int) -> float:
    """One schedule step: epsilon - 1/n, floored at zero."""
    if n < 1:
        raise ValueError("dataset size must be positive")
    return max(epsilon - 1.0 / n, 0.0)


def rejection_abc(sim, prior: PriorSpec, dataset: LabeledSet, config: RejectionConfig,
                  seed: int) -> PosteriorEnsemble:
    """Accept ``config.sample_count`` prior draws with distance strictly below
    ``config.epsilon``; None takes ABC-SMC's initial tolerance at the same seed."""
    count, epsilon, max_draws = config.sample_count, config.epsilon, config.max_draws
    if epsilon is None:
        epsilon = _nonzero(initial_tolerance(sim, prior, dataset, substream(seed, 0, 0)))
    rng = substream(seed)
    accepted: list[np.ndarray] = []
    draws = 0
    while len(accepted) < count:
        if draws >= max_draws:
            raise BudgetExhaustedError(
                f"rejection sampling used all {max_draws} draws with "
                f"{len(accepted)}/{count} acceptances at epsilon {epsilon}")
        # A block cannot hold more acceptances than are still needed, so the
        # draws and queries equal those of a one-at-a-time loop.
        zs = sample_prior(prior, min(count - len(accepted), max_draws - draws), rng)
        draws += len(zs)
        labels = sim.query_labels(zs, dataset.X).reshape(len(zs), len(dataset))
        accepted.extend(zs[distance_error_rate(labels, dataset.y) < epsilon])
    return PosteriorEnsemble(
        np.array(accepted), np.full(count, 1.0 / count), REJECTION_ABC,
        diagnostics={"acceptance_rate": count / draws, "epsilon": float(epsilon),
                     "draws": float(draws)})


def update_weights(new_particles: np.ndarray, prev_particles: np.ndarray,
                   prev_weights: np.ndarray, kernel_variance: np.ndarray,
                   prior: PriorSpec) -> np.ndarray:
    """Importance weights: prior density over the resample-and-perturb mixture.

    Everything happens in log space; the naive product form underflows well
    before d = 20. A kernel variance near the float range overflows 2 pi var
    and (z - prev)^2 although their logs and ratio are finite; only those
    entries are recomputed in scaled form.
    """
    new_particles = np.atleast_2d(new_particles)
    prev_particles = np.atleast_2d(prev_particles)
    prev_weights = np.asarray(prev_weights, dtype=float)
    kernel_variance = np.asarray(kernel_variance, dtype=float)
    with np.errstate(divide="ignore"):
        log_prev_w = np.log(prev_weights)
    with np.errstate(over="ignore"):
        log_norm = np.log(2.0 * np.pi * kernel_variance)
    log_norm = np.where(np.isfinite(log_norm), log_norm,
                        np.log(2.0 * np.pi) + np.log(kernel_variance))
    log_w = np.empty(len(new_particles))
    for s, z in enumerate(new_particles):
        with np.errstate(over="ignore"):  # an entry still infinite has no mixture mass
            squares = (z - prev_particles) ** 2 / kernel_variance
            if not np.isfinite(squares).all():
                squares = np.where(np.isfinite(squares), squares,
                                   ((z - prev_particles) / np.sqrt(kernel_variance)) ** 2)
        log_mix = log_prev_w - 0.5 * np.sum(squares + log_norm, axis=1)
        log_sum = log_mix.max()
        if np.isfinite(log_sum):  # an all -inf row has no mixture mass to sum
            log_sum += np.log(np.exp(log_mix - log_sum).sum())
        log_w[s] = prior_log_density(prior, z) - log_sum
    top = log_w.max()
    if not np.isfinite(top):
        raise DegenerateWeightsError("all importance weights vanished or diverged")
    weights = np.exp(log_w - top)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise DegenerateWeightsError("importance weights cannot be normalized")
    return weights / total


def update_kernel_variance(particles: np.ndarray, weights: np.ndarray,
                           variance_floor: float) -> np.ndarray:
    """Per-coordinate weighted empirical variance, floored elementwise;
    NumericalBreakdownError if it overflows (particles near the float range)."""
    particles = np.atleast_2d(particles)
    weights = np.asarray(weights, dtype=float)
    mean = weights @ particles
    with np.errstate(over="ignore", invalid="ignore"):
        variance = weights @ (particles - mean) ** 2
    if not np.isfinite(variance).all():
        raise NumericalBreakdownError("the perturbation kernel variance overflowed")
    return np.maximum(variance, variance_floor)


def effective_sample_size(weights: np.ndarray) -> float:
    """Degeneracy diagnostic 1 / sum(w^2); equals the count iff weights are uniform."""
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError(f"weights sum to {weights.sum()}, expected 1")
    return float(1.0 / np.sum(weights ** 2))


def abc_smc(sim, prior: PriorSpec, dataset: LabeledSet, config: SmcConfig,
            seed: int) -> PosteriorEnsemble:
    """Sequential ABC with a 1/N tolerance decay. Uses only label queries."""
    size = config.sample_count
    calls_before = sim.budget.used
    trace = {"iteration": [], "epsilon": [], "ess": [], "total_attempts": [],
             "simulator_calls": []}
    initial_epsilon = epsilon = _nonzero(initial_tolerance(sim, prior, dataset,
                                                           substream(seed, 0, 0)))
    for t in range(1, config.smc_iterations + 1):
        if t > 1:
            next_epsilon = decay_tolerance(epsilon, len(dataset))
            if next_epsilon == 0.0:
                break
            epsilon = next_epsilon
            kernel_sd = np.sqrt(kernel_variance)
            # bit for bit what stream.choice(size, p=weights) computes and draws
            cdf = weights.cumsum()
            cdf /= cdf[-1]

        new_particles = np.empty((size, prior.dim))
        iter_attempts = 0
        streams = [substream(seed, t, s) for s in range(size)]
        waiting = np.arange(size)
        for attempt in range(1, config.max_attempts + 1):
            # Lock-step: every waiting slot draws its next proposal from its
            # own stream, and the round goes out as one query.
            if t == 1:
                zs = np.concatenate([sample_prior(prior, 1, streams[s]) for s in waiting])
            else:
                picks = cdf.searchsorted([streams[s].random() for s in waiting],
                                         side="right")
                zs = particles[picks] + kernel_sd * np.array(
                    [streams[s].standard_normal(prior.dim) for s in waiting])
            labels = sim.query_labels(zs, dataset.X).reshape(len(zs), len(dataset))
            distances = distance_error_rate(labels, dataset.y)
            accepted = distances < epsilon if t == 1 else distances <= epsilon
            new_particles[waiting[accepted]] = zs[accepted]
            iter_attempts += attempt * int(np.count_nonzero(accepted))
            waiting = waiting[~accepted]
            if len(waiting) == 0:
                break
        else:
            raise StagnationError(
                f"particle {waiting[0]} found no proposal within epsilon {epsilon} in "
                f"{config.max_attempts} attempts (iteration {t})")

        if t > 1 and config.weight_scheme == WEIGHT_IMPORTANCE:
            weights = update_weights(new_particles, particles, weights,
                                     kernel_variance, prior)
        else:
            weights = np.full(size, 1.0 / size)
        particles = new_particles
        kernel_variance = update_kernel_variance(particles, weights,
                                                 config.variance_floor)
        trace["iteration"].append(t)
        trace["epsilon"].append(epsilon)
        trace["ess"].append(effective_sample_size(weights))
        trace["total_attempts"].append(iter_attempts)
        trace["simulator_calls"].append(sim.budget.used - calls_before)
        calls_before = sim.budget.used

    return PosteriorEnsemble(
        particles, weights, ABC_SMC,
        diagnostics={"final_epsilon": float(epsilon),
                     "initial_epsilon": float(initial_epsilon),
                     "ess": trace["ess"][-1],
                     "iterations": float(len(trace["iteration"])),
                     "total_attempts": float(sum(trace["total_attempts"])),
                     "simulator_calls": float(sum(trace["simulator_calls"]))},
        trace=trace)
