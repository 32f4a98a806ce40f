"""Covariance Matrix Adaptation Evolution Strategy with an ask/tell interface.

Standard (mu/mu_w, lambda) strategy: rank-one plus rank-mu covariance updates
and cumulative step-size adaptation, with the usual default strategy
constants as functions of the dimension and population size. Recombination
uses the top half of the population with log-linear weights.

One single-owner state holds E members of one dimension d and population
size lambda that share only the strategy constants. ``ask`` returns the
member-major (E * lambda, d) population, one candidate per row, the caller
evaluates it into a loss vector, and ``tell`` takes both back. Each stacked
operation equals its one-member form bit for bit, so every member follows the
trajectory of a run on its own. ``minimize`` scores a generation with one call
of a batched objective, so it is one simulator query. A vector-to-scalar
``f`` becomes one with ``lambda xs: np.array([f(x) for x in xs])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NumericalBreakdownError

EIGENVALUE_FLOOR = 1e-20


@dataclass
class SearchState:  # E members of one dimension d
    mean: np.ndarray        # (E, d): distribution means m_t
    step_size: np.ndarray   # (E,): sigma_t
    cov: np.ndarray         # (E, d, d): C_t, symmetric positive definite
    path_sigma: np.ndarray  # (E, d): step-size evolution paths
    path_cov: np.ndarray    # (E, d): covariance evolution paths
    generation: int
    population_size: int
    parents: int            # mu, number of recombination weights
    weights: np.ndarray     # (parents,), positive, sum to 1
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_cov_path: float       # c_c
    c_rank_one: float       # c_1
    c_rank_mu: float        # c_mu
    chi_n: float            # E||N(0, I_n)||
    rngs: list[np.random.Generator]  # one per member
    eigen: tuple | None = None  # ask's _decompose(cov), reused by the next tell

    @property
    def dim(self) -> int:
        return self.mean.shape[1]


def es_init(means0: np.ndarray, sigmas0, population_size: int, seeds) -> SearchState:
    """Fresh state of one member per row of the (E, d) ``means0``, with E step sizes
    and E generator seeds: identity covariances, zero paths, Hansen-default constants."""
    means0 = np.array(means0, dtype=float)
    sigmas0 = np.array(sigmas0, dtype=float)
    if means0.ndim != 2 or means0.size == 0:
        raise ValueError(f"need a non-empty (E, d) stack of means, got shape {means0.shape}")
    if sigmas0.shape != (len(means0),) or len(seeds) != len(means0):
        raise ValueError("need one step size and one seed per mean")
    if not (sigmas0 > 0).all():
        raise ValueError("sigma0 must be positive")
    if population_size < 2:
        raise ValueError("population_size must be at least 2")

    (members, n), lam = means0.shape, population_size
    mu = lam // 2
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float(weights @ weights)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_cov_path = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_rank_one = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_rank_mu = min(1.0 - c_rank_one,
                    2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n ** 2))

    return SearchState(
        mean=means0, step_size=sigmas0, cov=np.tile(np.eye(n), (members, 1, 1)),
        path_sigma=np.zeros((members, n)), path_cov=np.zeros((members, n)), generation=0,
        population_size=lam, parents=mu, weights=weights, mu_eff=mu_eff,
        c_sigma=c_sigma, d_sigma=d_sigma, c_cov_path=c_cov_path,
        c_rank_one=c_rank_one, c_rank_mu=c_rank_mu, chi_n=chi_n,
        rngs=[np.random.default_rng(seed) for seed in seeds])


def _refuse_first(ok: np.ndarray, members: np.ndarray, problem: str) -> None:
    """NumericalBreakdownError naming the first of ``members`` whose ``ok`` is false."""
    if not ok.all():
        raise NumericalBreakdownError(f"member {members[np.argmin(ok)]}: {problem}")


def _decompose(cov: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of each (d, d) block, floored; ``members`` numbers the blocks.
    A non-finite block is named first: the stacked ``eigh`` would fail them all."""
    _refuse_first(np.isfinite(cov).all(axis=(1, 2)), members, "the covariance is not finite")
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(f"covariance decomposition failed: {exc}") from exc
    _refuse_first(np.isfinite(vals).all(axis=1), members, "covariance eigenvalues are non-finite")
    return np.maximum(vals, EIGENVALUE_FLOOR), vecs


def ask(state: SearchState) -> np.ndarray:
    """Sample each member's candidates from N(mean, step_size^2 * cov), member-major;
    NumericalBreakdownError names the first member whose covariance does not
    decompose, else the first whose search has diverged to non-finite candidates."""
    members = np.arange(len(state.mean))
    state.eigen = vals, vecs = _decompose(state.cov, members)
    sqrt_cov = vecs * np.sqrt(vals)[:, None, :]
    noise = np.array([rng.standard_normal((state.population_size, state.dim))
                      for rng in state.rngs])
    with np.errstate(over="ignore", invalid="ignore"):
        xs = (state.mean[:, None, :] + state.step_size[:, None, None]
              * np.matmul(noise, sqrt_cov.transpose(0, 2, 1)))
    _refuse_first(np.isfinite(xs).all(axis=(1, 2)), members,
                  "the search distribution overflowed: the population is not finite")
    return xs.reshape(-1, state.dim)


def tell(state: SearchState, xs: np.ndarray, losses: np.ndarray) -> SearchState:
    """Rank each member's rows of the member-major ``xs`` by ``losses`` and apply
    the standard distribution updates to every member; EvaluationError, naming
    the member of the first non-finite loss, leaves the state untouched."""
    xs = np.asarray(xs, dtype=float)
    losses = np.asarray(losses, dtype=float)
    members, lam, n = len(state.mean), state.population_size, state.dim
    if xs.shape != (members * lam, n) or losses.shape != (members * lam,):
        raise EvaluationError(f"expected a ({members * lam}, {n}) population and "
                              f"{members * lam} losses, got shapes {xs.shape} "
                              f"and {losses.shape}")
    bad = np.flatnonzero(~np.isfinite(losses))
    if len(bad):
        raise EvaluationError(f"member {bad[0] // lam}: objective returned "
                              f"{float(losses[bad[0]])!r} at candidate {xs[bad[0]]}")

    # Rank by member, then by loss, then by the row's entries in order: the
    # content-based tie-break keeps each member's update invariant to row order.
    ranked = np.lexsort((*xs.T[::-1], losses, np.repeat(np.arange(members), lam)))
    selected = xs[ranked.reshape(members, lam)[:, :state.parents]]  # (E, mu, d)

    old_mean, sigma = state.mean, state.step_size[:, None]
    steps = (selected - old_mean[:, None, :]) / sigma[:, None]   # y_i
    step_w = np.matmul(state.weights, steps)                     # y_w

    state.mean = old_mean + sigma * step_w

    vals, vecs = state.eigen or _decompose(state.cov, np.arange(members))
    inv_sqrt = np.matmul(vecs / np.sqrt(vals)[:, None, :], vecs.transpose(0, 2, 1))  # C^(-1/2)
    state.path_sigma = ((1.0 - state.c_sigma) * state.path_sigma
                        + np.sqrt(state.c_sigma * (2.0 - state.c_sigma) * state.mu_eff)
                        * np.matmul(inv_sqrt, step_w[:, :, None])[:, :, 0])

    # the matmul form equals np.linalg.norm of each row bit for bit; norm(axis=1) does not
    norm_ps = np.sqrt(np.matmul(state.path_sigma[:, None, :],
                                state.path_sigma[:, :, None])[:, 0, 0])
    state.step_size = state.step_size * np.exp(np.minimum(
        1.0, (state.c_sigma / state.d_sigma) * (norm_ps / state.chi_n - 1.0)))

    decay = 1.0 - (1.0 - state.c_sigma) ** (2 * (state.generation + 1))
    h_sig = (norm_ps / np.sqrt(decay) < (1.4 + 2.0 / (n + 1.0)) * state.chi_n).astype(float)
    state.path_cov = ((1.0 - state.c_cov_path) * state.path_cov
                      + (h_sig * np.sqrt(state.c_cov_path * (2.0 - state.c_cov_path)
                                         * state.mu_eff))[:, None] * step_w)

    rank_mu = np.matmul((steps * state.weights[:, None]).transpose(0, 2, 1), steps)
    correction = ((1.0 - h_sig) * state.c_cov_path * (2.0 - state.c_cov_path))[:, None, None]
    cov = ((1.0 - state.c_rank_one - state.c_rank_mu) * state.cov
           + state.c_rank_one * (state.path_cov[:, :, None] * state.path_cov[:, None, :]
                                 + correction * state.cov)
           + state.c_rank_mu * rank_mu)
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    low = np.linalg.eigvalsh(cov).min(axis=1) < EIGENVALUE_FLOOR
    if low.any():  # repair only those members, so the others keep their bits
        vals, vecs = _decompose(cov[low], np.flatnonzero(low))
        repaired = np.matmul(vecs * vals[:, None, :], vecs.transpose(0, 2, 1))
        cov[low] = (repaired + repaired.transpose(0, 2, 1)) / 2.0
    state.cov, state.eigen = cov, None

    state.generation += 1
    return state


@dataclass
class MinimizeResult:  # E members, G generations
    best_x: np.ndarray      # (E, d): each member's best candidate
    best_loss: np.ndarray   # (E,)
    history: np.ndarray     # (G, E): best-so-far loss per generation, nonincreasing
    step_sizes: np.ndarray  # (G, E): sigma after each generation's update


def minimize(objective, state: SearchState, max_generations: int) -> MinimizeResult:
    """Ask/evaluate/tell every member of ``state`` in lock-step, one ``objective``
    call per generation. A member whose ``ask`` diverges, or the first with a
    non-finite loss, stops the run at that generation; the error names it."""
    if max_generations < 1:
        raise ValueError("max_generations must be at least 1")
    members, lam = len(state.mean), state.population_size
    best_x, best_loss = state.mean.copy(), np.full(members, np.inf)
    history, step_sizes = [], []

    for _ in range(max_generations):
        xs = ask(state)
        losses = np.asarray(objective(xs), dtype=float)
        tell(state, xs, losses)
        best = np.arange(members) * lam + np.argmin(losses.reshape(members, lam), axis=1)
        better = losses[best] < best_loss
        best_loss[better], best_x[better] = losses[best[better]], xs[best[better]]
        history.append(best_loss.copy())
        step_sizes.append(state.step_size)

    return MinimizeResult(best_x, best_loss, np.array(history), np.array(step_sizes))
