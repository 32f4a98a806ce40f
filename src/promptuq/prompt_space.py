"""Subspace parameterization of prompts and the Gaussian prior over it.

A full prompt vector lives in R^prompt_dim but is only ever produced from a
low-dimensional vector z through a fixed random linear map,

    prompt = matrix @ z + anchor,

so every inference method works in R^subspace_dim. The projection matrix is
generated from a seed when its task is built and is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_positive


@dataclass(frozen=True)
class ProjectionSpec:
    """Fixed linear map from the search subspace to full prompt space."""

    subspace_dim: int
    prompt_dim: int
    matrix: np.ndarray   # (prompt_dim, subspace_dim)
    anchor: np.ndarray   # (prompt_dim,)
    seed: int

    def __post_init__(self):
        if self.matrix.shape != (self.prompt_dim, self.subspace_dim):
            raise ValueError(
                f"projection matrix shape {self.matrix.shape} does not match "
                f"({self.prompt_dim}, {self.subspace_dim})")
        if self.anchor.shape != (self.prompt_dim,):
            raise ValueError(f"anchor shape {self.anchor.shape} != ({self.prompt_dim},)")
        if not np.isfinite(self.matrix).all() or not np.isfinite(self.anchor).all():
            raise ValueError("projection contains non-finite entries")


def make_projection(subspace_dim: int, prompt_dim: int, seed: int,
                    anchor: np.ndarray | None = None) -> ProjectionSpec:
    """Generate the projection deterministically from ``seed``.

    Entries are i.i.d. normal with variance 1/subspace_dim, so the image of a
    unit vector has roughly unit norm. The anchor defaults to zero.
    """
    if subspace_dim < 1 or prompt_dim < 1 or subspace_dim > prompt_dim:
        raise ValueError(
            f"need 1 <= subspace_dim <= prompt_dim, got ({subspace_dim}, {prompt_dim})")
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 1.0 / np.sqrt(subspace_dim), size=(prompt_dim, subspace_dim))
    if anchor is None:
        anchor = np.zeros(prompt_dim)
    else:
        anchor = np.asarray(anchor, dtype=float)
    return ProjectionSpec(subspace_dim, prompt_dim, matrix, anchor, int(seed))


def project(spec: ProjectionSpec, z: np.ndarray) -> np.ndarray:
    """Map a subspace vector, or each row of a (K, d) stack, to the full
    prompt: matrix @ z + anchor.

    The stacked matmul makes one matrix-vector product per row with the
    shapes of a single call, so a row's prompt does not depend on the stack.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != spec.subspace_dim:
        raise ValueError(f"z has shape {z.shape}, expected ({spec.subspace_dim},) "
                         f"or (K, {spec.subspace_dim})")
    return np.matmul(spec.matrix, z[..., None])[..., 0] + spec.anchor


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
    return float(-0.5 * d * np.log(2.0 * np.pi) - d * np.log(prior.sigma)
                 - 0.5 * float(z @ z) / prior.sigma ** 2)
