"""Subspace parameterization of prompts and the Gaussian prior over it.

A full prompt vector lives in R^prompt_dim but is only ever produced from a
low-dimensional vector z through a fixed random linear map,

    prompt = matrix @ z,

so every inference method works in R^subspace_dim. The matrix is drawn from
a seed when its task is built and stored as a weight of the task's classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_positive


def substream(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` of ``seed``:
    ``default_rng(SeedSequence(seed, spawn_key=key))``; ``substream(seed)`` is
    ``default_rng(seed)``, and ``substream(seed, i)`` is the i-th generator of
    ``SeedSequence(seed).spawn(n)``.

    Every random draw of the package comes from one of these keys:

    ============================  ======  =========  ==============================
    user                          seed    key        draws
    ============================  ======  =========  ==============================
    ``make_synthetic_task``       task    ``(0,)``   projection seed
                                          ``(1,)``   network seed
                                          ``(2,)``   z_star candidates
                                          ``(3,)``   train, then test inputs
                                          ``(4,)``   near- and far-OOD inputs
                                          ``(5,)``   train, then test label noise
    ``task --inspect``            task    ``()``     20 prior draws
    ``predict --decode sample``   CLI     ``()``     label decode seeds
    ``derive_seeds``              run     ``(1,)``   ensemble member seeds
    ``_lockstep_fit``, member k   member  ``(0,)``   initial mean, step size
                                                     factor, CMA-ES member seed
    ``gfvi_tune``                 run     ``(0,)``   CMA-ES seed
                                          ``(1, k)`` ELBO draws of candidate k,
                                                     counted over generations
                                          ``(2,)``   final posterior draws
    ``rejection_abc``             run     ``()``     prior proposals
                                          ``(0, 0)`` initial tolerance draw
    ``abc_smc``                   run     ``(0, 0)`` initial tolerance draw
                                          ``(t, s)`` slot s at iteration t >= 1
    ============================  ======  =========  ==============================

    "task" is the task config's seed, "run" the experiment seed, "CLI" the
    ``--seed`` option and "member" a member seed: the run seed for
    point_cmaes, ``derive_seeds(run, sample_count)[k]`` for ensembles. The
    projection, network and CMA-ES member seeds are ``integers(2**63)``
    draws, handed on as integers to ``make_projection``,
    ``FrozenClassifier.create`` and ``cmaes.es_init``, which seed
    ``default_rng`` with them; ``query_labels`` does the same with each label
    decode seed.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def make_projection(subspace_dim: int, prompt_dim: int, seed: int) -> np.ndarray:
    """The (prompt_dim, subspace_dim) projection matrix, drawn
    deterministically from ``seed``.

    Entries are i.i.d. normal with variance 1/subspace_dim, so the image of a
    unit vector has roughly unit norm.
    """
    if subspace_dim < 1 or prompt_dim < 1 or subspace_dim > prompt_dim:
        raise ValueError(
            f"need 1 <= subspace_dim <= prompt_dim, got ({subspace_dim}, {prompt_dim})")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(subspace_dim), size=(prompt_dim, subspace_dim))


def check_sigma(sigma, name: str) -> None:
    """ConfigError(name) unless ``sigma`` is positive with a positive finite square."""
    try:
        variance = float(sigma) * float(sigma)
    except OverflowError:  # an integer beyond the float range
        variance = float("inf")
    if not (sigma > 0 and 0.0 < variance < float("inf")):
        raise ConfigError(name, f"must be positive with a positive finite square, "
                                f"got {sigma!r}")


@dataclass(frozen=True)
class PriorSpec:
    """Zero-mean isotropic Gaussian prior over the subspace.

    ``sigma`` is the standard deviation: the covariance is sigma^2 * I. A bad
    value raises ``ConfigError`` naming its key, ``dim`` or ``sigma``.
    """

    dim: int
    sigma: float

    def __post_init__(self):
        check_positive(self, "dim")
        check_sigma(self.sigma, "sigma")


def sample_prior(prior: PriorSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. prior vectors, shape (count, dim)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return rng.normal(0.0, prior.sigma, size=(count, prior.dim))


def prior_log_density(prior: PriorSpec, z: np.ndarray) -> float:
    """Exact log density of N(0, sigma^2 I) at z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (prior.dim,):
        raise ValueError(f"z has shape {z.shape}, expected ({prior.dim},)")
    d = prior.dim
    with np.errstate(over="ignore"):  # z @ z overflows before its ratio to sigma^2
        quadratic = 0.5 * float(z @ z) / prior.sigma ** 2
        if not np.isfinite(quadratic):
            quadratic = 0.5 * float((z / prior.sigma) @ (z / prior.sigma))
    return float(-0.5 * d * np.log(2.0 * np.pi) - d * np.log(prior.sigma) - quadratic)
