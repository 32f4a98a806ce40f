"""Inference when class probabilities are observable.

Three producers of posterior sample sets over the subspace vector z:

* ``point_estimate``: minimize the cross-entropy loss with CMA-ES; a
  one-sample "posterior" (the usual tuned-prompt baseline).
* ``ensemble_tune``: E = ``config.sample_count`` independent CMA-ES members
  from randomized initial mean and step size, each at its own seed from
  ``derive_seeds``, run in lock-step and pooled with uniform weights.
* ``gfvi_tune``: variational inference without gradients. A diagonal
  Gaussian q(z) = N(mu, diag(exp(log_alpha))) is fit by running CMA-ES over
  the stacked vector (mu, log_alpha), scoring each candidate by a
  Monte-Carlo estimate of the evidence lower bound. A generation is scored
  as arrays: its (K, d) ``mu`` and ``log_alpha`` rows give K ELBOs.

Every inference method, here and in ``abc_smc``, is called as
``method(sim, prior, dataset, config, seed)`` and returns a
``PosteriorEnsemble``. Each derives named substreams from its integer seed,
so parallel candidate evaluation cannot change results. All three are one
``cmaes.minimize`` search of one E-member state (point: 1, ensemble: E, GFVI: 1),
each generation one query of the E * population rows (a 100 KB probability
block at E = 10, population 20, 32 inputs, 2 classes) or of every GFVI
candidate's draws. Stacked rows equal single-z rows bit for bit, so each
member's trajectory and its member-major trace rows are unchanged.
A member that diverges or meets a non-finite loss stops the whole fit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import cmaes
from .blackbox import LabeledSet
from .errors import ConfigError, EvaluationError, check_positive
from .prompt_space import PriorSpec, sample_prior, substream

PROB_FLOOR = 1e-12

POINT_ESTIMATE = "point_estimate"
ENSEMBLES = "ensembles"
VARIATIONAL_INFERENCE = "variational_inference"
REJECTION_ABC = "rejection_abc"
ABC_SMC = "abc_smc"


@dataclass(frozen=True)
class EsConfig:
    """point_cmaes: one CMA-ES fit (population 20 x 300 generations)."""

    population_size: int = 20
    max_generations: int = 300
    sigma0: float | None = None  # None: the prior standard deviation
    sample_count: ClassVar[int] = 1  # one fit; not a parameter of point_cmaes

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("population_size", "must be at least 2")
        # sample_count: a field of EnsembleConfig, 1 here
        check_positive(self, "max_generations", "sigma0", "sample_count")


@dataclass(frozen=True)
class EnsembleConfig(EsConfig):
    """ensembles: ``sample_count`` independent CMA-ES fits."""

    sample_count: int = 10


@dataclass(frozen=True)
class GfviConfig:
    """gfvi: CMA-ES over the variational parameters, then ``sample_count`` draws."""

    population_size: int = 20
    max_generations: int = 300
    sample_count: int = 100
    mc_samples: int = 10  # ELBO likelihood draws per candidate
    search_step: float = 0.3  # initial CMA-ES step in prior-normalized coordinates

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError("population_size", "must be at least 2")
        check_positive(self, "max_generations", "sample_count", "mc_samples",
                       "search_step")


@dataclass
class PosteriorEnsemble:
    """Weighted sample set {(z_s, w_s)}: the universal output of every method."""

    samples: np.ndarray            # (size, subspace_dim)
    weights: np.ndarray            # (size,), nonnegative, sums to 1
    provenance: str
    diagnostics: dict[str, float] = field(default_factory=dict)
    trace: dict[str, list] = field(default_factory=dict)  # trace columns by name, in order

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if (self.samples.ndim != 2 or len(self.samples) < 1
                or len(self.samples) != len(self.weights)):
            raise ValueError("need a (size, d) sample matrix, one weight per row, size >= 1")
        if not (np.isfinite(self.samples).all() and np.isfinite(self.weights).all()):
            raise ValueError("samples and weights must be finite")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()}, expected 1")

    @property
    def size(self) -> int:
        return len(self.samples)


def negative_log_likelihood(sim, z: np.ndarray, dataset: LabeledSet) -> np.ndarray:
    """Cross-entropy of the dataset under the simulator at each row of a (K, d)
    stack (a (d,) z is K = 1), shape (K,), all from one query.

    Probabilities are floored at 1e-12 before the log so a confidently wrong
    simulator yields a large finite loss instead of -inf.
    """
    zs = np.atleast_2d(np.asarray(z, dtype=float))
    n = len(dataset)
    if n == 0:
        return np.zeros(len(zs))
    probs = sim.query_logits(zs, dataset.X).reshape(-1, n, sim.classes)
    # a contiguous copy keeps each row's sum in the order of a single-z query
    picked = np.ascontiguousarray(probs[:, np.arange(n), dataset.y])
    return -np.log(np.maximum(picked, PROB_FLOOR)).sum(axis=1)


def _lockstep_fit(sim, prior: PriorSpec, dataset: LabeledSet, es: EsConfig,
                  seeds: list[int]) -> tuple[cmaes.MinimizeResult, dict[str, list]]:
    """Lock-step CMA-ES over z, one member per seed; the result and its trace."""
    init_rngs = [substream(seed, 0) for seed in seeds]
    means0 = np.concatenate([sample_prior(prior, 1, rng) for rng in init_rngs])
    sigmas0 = [(es.sigma0 or prior.sigma) * rng.uniform(0.5, 1.5) for rng in init_rngs]
    state = cmaes.es_init(means0, sigmas0, es.population_size,
                          [int(rng.integers(2 ** 63)) for rng in init_rngs])
    result = cmaes.minimize(lambda zs: negative_log_likelihood(sim, zs, dataset), state,
                            es.max_generations)
    return result, {"generation": list(range(1, es.max_generations + 1)) * len(seeds),
                    "best_loss": result.history.T.ravel().tolist(),
                    "step_size": result.step_sizes.T.ravel().tolist()}


def point_estimate(sim, prior: PriorSpec, dataset: LabeledSet, config: EsConfig,
                   seed: int) -> PosteriorEnsemble:
    """Single tuned prompt: the degenerate one-sample ensemble with weight 1."""
    result, trace = _lockstep_fit(sim, prior, dataset, config, [seed])
    return PosteriorEnsemble(result.best_x, np.array([1.0]), POINT_ESTIMATE,
                             diagnostics={"final_nll": float(result.best_loss[0])},
                             trace=trace)


def ensemble_tune(sim, prior: PriorSpec, dataset: LabeledSet, config: EnsembleConfig,
                  seed: int) -> PosteriorEnsemble:
    """``config.sample_count`` independent CMA-ES runs, member k at
    ``derive_seeds(seed, sample_count)[k]``, pooled with uniform weights."""
    size = config.sample_count
    result, trace = _lockstep_fit(sim, prior, dataset, config, derive_seeds(seed, size))
    member = np.repeat(np.arange(size), config.max_generations).tolist()
    return PosteriorEnsemble(result.best_x, np.full(size, 1.0 / size), ENSEMBLES,
                             diagnostics={"best_final_nll": float(result.best_loss.min()),
                                          "mean_final_nll": float(result.best_loss.mean())},
                             trace={"member": member, **trace})


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Stable per-member seeds for an ensemble run."""
    return [int(s) for s in substream(master_seed, 1).integers(2 ** 63, size=count)]


def kl_diag_gaussian_to_prior(mu: np.ndarray, log_alpha: np.ndarray,
                              prior: PriorSpec) -> np.ndarray:
    """Closed-form KL( N(mu_k, diag(exp(log_alpha_k))) || N(0, sigma^2 I) ) of
    each row k of the (K, d) arrays, shape (K,)."""
    if mu.shape[1] != prior.dim:
        raise ValueError(f"params dim {mu.shape[1]} != prior dim {prior.dim}")
    var = prior.sigma ** 2
    alpha = np.exp(log_alpha)
    terms = alpha / var + mu ** 2 / var - 1.0 + np.log(var / alpha)
    return 0.5 * terms.sum(axis=1)


def elbo_estimate(mu: np.ndarray, log_alpha: np.ndarray, sim, prior: PriorSpec,
                  dataset: LabeledSet, mc_samples: int, streams) -> np.ndarray:
    """Monte-Carlo evidence lower bound of each row of the (K, d) arrays, (K,).

    Averages the dataset log likelihood over ``mc_samples`` draws from q_k and
    subtracts the exact KL to the prior. Row k draws from ``streams[k]`` and
    its likelihood terms are summed in draw order, so its value does not
    depend on the batch; all draws go out as one query.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    if len(streams) != len(mu):
        raise ValueError(f"need one stream per row, got {len(streams)} for {len(mu)}")
    noise = np.array([stream.standard_normal((mc_samples, prior.dim)) for stream in streams])
    draws = mu[:, None] + np.sqrt(np.exp(log_alpha))[:, None] * noise
    nll = negative_log_likelihood(sim, draws.reshape(-1, prior.dim), dataset)
    log_likelihood = -np.cumsum(nll.reshape(len(mu), mc_samples), axis=1)[:, -1]
    return log_likelihood / mc_samples - kl_diag_gaussian_to_prior(mu, log_alpha, prior)


def _decode_search_matrix(us: np.ndarray, prior: PriorSpec) -> tuple[np.ndarray, np.ndarray]:
    """(mu, log_alpha) of each row of a (K, 2d) search matrix; EvaluationError,
    naming the first such row, if a mean or a variance is not finite.

    Search coordinates are prior-normalized: u = 0 decodes to q = prior. The
    first block scales to the mean in units of the prior sigma; the second
    offsets log alpha from the prior's log variance, so every candidate
    decodes to strictly positive variances.
    """
    d = prior.dim
    with np.errstate(over="ignore"):
        mu = prior.sigma * us[:, :d]
        log_alpha = 2.0 * np.log(prior.sigma) + us[:, d:]
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(np.exp(log_alpha)).all(axis=1)
    if not finite.all():
        raise EvaluationError(f"a search vector decodes to no distribution: candidate "
                              f"{int(np.argmin(finite))}: the mean or the variances overflow")
    return mu, log_alpha


def gfvi_tune(sim, prior: PriorSpec, dataset: LabeledSet, config: GfviConfig,
              seed: int) -> PosteriorEnsemble:
    """Gradient-free variational inference.

    CMA-ES proposes stacked (mu, log alpha) vectors; each candidate is scored
    by -ELBO with a Monte-Carlo likelihood term, one query per generation.
    Candidate k of generation g draws from ``substream(seed, 1, g * population + k)``.
    Returns ``config.sample_count`` draws from the best variational
    distribution ever seen, uniformly weighted.
    """
    d = prior.dim
    counter = itertools.count()

    def negative_elbos(us: np.ndarray) -> np.ndarray:
        mu, log_alpha = _decode_search_matrix(us, prior)
        streams = [substream(seed, 1, next(counter)) for _ in us]
        return -elbo_estimate(mu, log_alpha, sim, prior, dataset, config.mc_samples, streams)

    state = cmaes.es_init(np.zeros((1, 2 * d)), [config.search_step], config.population_size,
                          [int(substream(seed, 0).integers(2 ** 63))])
    result = cmaes.minimize(negative_elbos, state, config.max_generations)
    mu, log_alpha = _decode_search_matrix(result.best_x, prior)
    best_elbos = [-v for v in result.history[:, 0].tolist()]

    count = config.sample_count
    draws = mu[0] + np.sqrt(np.exp(log_alpha[0])) * substream(seed, 2).standard_normal((count, d))
    return PosteriorEnsemble(
        draws, np.full(count, 1.0 / count), VARIATIONAL_INFERENCE,
        diagnostics={"best_elbo": -float(result.best_loss[0]),
                     "final_kl": float(kl_diag_gaussian_to_prior(mu, log_alpha, prior)[0])},
        trace={"generation": list(range(1, len(best_elbos) + 1)),
               "best_elbo": best_elbos})
