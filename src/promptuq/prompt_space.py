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
