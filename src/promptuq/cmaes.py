"""Covariance Matrix Adaptation Evolution Strategy with an ask/tell interface.

Standard (mu/mu_w, lambda) strategy: rank-one plus rank-mu covariance updates
and cumulative step-size adaptation, with the usual default strategy
constants as functions of the dimension and population size. Recombination
uses the top half of the population with log-linear weights.

The state is single-owner: one coordinator calls ``ask`` and ``tell``.
A population is a (population_size, d) matrix, one candidate per row.
``ask`` returns it, the caller evaluates it into a loss vector, and ``tell``
takes both back. ``minimize`` runs E member states in lock-step over a batched
objective that maps the member-major (E * population_size, d) stack to its
losses in one call, so a generation of every member is one simulator query.
A vector-to-scalar ``f`` becomes one with ``lambda xs: np.array([f(x) for x in xs])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NumericalBreakdownError

EIGENVALUE_FLOOR = 1e-20


@dataclass
class SearchState:
    mean: np.ndarray        # distribution mean m_t
    step_size: float        # sigma_t
    cov: np.ndarray         # C_t, symmetric positive definite
    path_sigma: np.ndarray  # step-size evolution path
    path_cov: np.ndarray    # covariance evolution path
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
    rng: np.random.Generator
    eigen: tuple | None = None  # ask's _decompose(cov), reused by the next tell

    @property
    def dim(self) -> int:
        return len(self.mean)


def es_init(mean0: np.ndarray, sigma0: float, population_size: int,
            seed: int) -> SearchState:
    """Fresh state: identity covariance, zero paths, Hansen-default constants."""
    mean0 = np.asarray(mean0, dtype=float)
    n = len(mean0)
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    if population_size < 2:
        raise ValueError("population_size must be at least 2")

    lam = population_size
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
        mean=mean0.copy(), step_size=float(sigma0), cov=np.eye(n),
        path_sigma=np.zeros(n), path_cov=np.zeros(n), generation=0,
        population_size=lam, parents=mu, weights=weights, mu_eff=mu_eff,
        c_sigma=c_sigma, d_sigma=d_sigma, c_cov_path=c_cov_path,
        c_rank_one=c_rank_one, c_rank_mu=c_rank_mu, chi_n=chi_n,
        rng=np.random.default_rng(seed))


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with the eigenvalue floor applied."""
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(f"covariance decomposition failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NumericalBreakdownError("covariance eigenvalues are non-finite")
    return np.maximum(vals, EIGENVALUE_FLOOR), vecs


def ask(state: SearchState) -> np.ndarray:
    """Sample a (population_size, d) population from N(mean, step_size^2 * cov);
    NumericalBreakdownError once the search has diverged to non-finite candidates."""
    state.eigen = vals, vecs = _decompose(state.cov)
    sqrt_cov = vecs * np.sqrt(vals)
    noise = state.rng.standard_normal((state.population_size, state.dim))
    xs = state.mean + state.step_size * (noise @ sqrt_cov.T)
    if not np.isfinite(xs).all():
        raise NumericalBreakdownError("the search distribution overflowed: "
                                      "the population is not finite")
    return xs


def tell(state: SearchState, xs: np.ndarray, losses: np.ndarray) -> SearchState:
    """Rank the rows of ``xs`` by ``losses`` and apply the standard distribution updates."""
    xs = np.asarray(xs, dtype=float)
    losses = np.asarray(losses, dtype=float)
    lam = state.population_size
    if xs.shape != (lam, state.dim) or losses.shape != (lam,):
        raise EvaluationError(
            f"expected a ({lam}, {state.dim}) population and {lam} losses, "
            f"got {xs.shape} and {losses.shape}")
    if not np.isfinite(losses).all():
        raise EvaluationError(f"losses must be finite, got {losses}")

    # Rank by loss, then by the row's entries in order: the content-based
    # tie-break keeps the update invariant to row order.
    ranked = np.lexsort((*xs.T[::-1], losses))
    selected = xs[ranked[:state.parents]]

    n = state.dim
    old_mean = state.mean
    steps = (selected - old_mean) / state.step_size       # y_i
    step_w = state.weights @ steps                        # y_w

    state.mean = old_mean + state.step_size * step_w

    vals, vecs = state.eigen or _decompose(state.cov)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T            # C^(-1/2)
    state.path_sigma = ((1.0 - state.c_sigma) * state.path_sigma
                        + np.sqrt(state.c_sigma * (2.0 - state.c_sigma) * state.mu_eff)
                        * (inv_sqrt @ step_w))

    norm_ps = float(np.linalg.norm(state.path_sigma))
    state.step_size *= float(np.exp(min(
        1.0, (state.c_sigma / state.d_sigma) * (norm_ps / state.chi_n - 1.0))))

    decay = 1.0 - (1.0 - state.c_sigma) ** (2 * (state.generation + 1))
    h_sig = 1.0 if norm_ps / np.sqrt(decay) < (1.4 + 2.0 / (n + 1.0)) * state.chi_n else 0.0
    state.path_cov = ((1.0 - state.c_cov_path) * state.path_cov
                      + h_sig * np.sqrt(state.c_cov_path * (2.0 - state.c_cov_path)
                                        * state.mu_eff) * step_w)

    rank_mu = (steps * state.weights[:, None]).T @ steps
    correction = (1.0 - h_sig) * state.c_cov_path * (2.0 - state.c_cov_path)
    cov = ((1.0 - state.c_rank_one - state.c_rank_mu) * state.cov
           + state.c_rank_one * (np.outer(state.path_cov, state.path_cov)
                                 + correction * state.cov)
           + state.c_rank_mu * rank_mu)
    cov = (cov + cov.T) / 2.0
    if np.linalg.eigvalsh(cov).min() < EIGENVALUE_FLOOR:
        vals, vecs = _decompose(cov)
        cov = (vecs * vals) @ vecs.T
        cov = (cov + cov.T) / 2.0
    state.cov, state.eigen = cov, None

    state.generation += 1
    return state


@dataclass
class MinimizeResult:  # E members, G generations
    best_x: np.ndarray      # (E, d): each member's best candidate
    best_loss: np.ndarray   # (E,)
    history: np.ndarray     # (G, E): best-so-far loss per generation, nonincreasing
    step_sizes: np.ndarray  # (G, E): sigma after each generation's update


def minimize(objective, states: list[SearchState], max_generations: int) -> MinimizeResult:
    """Ask/evaluate/tell over members of one population size in lock-step, one
    ``objective`` call per generation; each member follows the trajectory of a
    run on its own. A member whose ``ask`` diverges, or the first with a
    non-finite loss, stops the run at that generation; the error names it."""
    if max_generations < 1:
        raise ValueError("max_generations must be at least 1")
    best_x = np.array([state.mean for state in states])
    best_loss = np.full(len(states), np.inf)
    history, step_sizes = [], []

    for _ in range(max_generations):
        populations = []
        for k, state in enumerate(states):
            try:
                populations.append(ask(state))
            except NumericalBreakdownError as exc:
                raise NumericalBreakdownError(f"member {k}: {exc}") from exc
        xs = np.concatenate(populations)
        losses = np.asarray(objective(xs), dtype=float)
        if losses.shape != (len(xs),):
            raise EvaluationError(f"objective returned shape {losses.shape} for {len(xs)} rows")
        bad = np.flatnonzero(~np.isfinite(losses))
        if len(bad):
            member = bad[0] // len(populations[0])
            raise EvaluationError(f"member {member}: objective returned "
                                  f"{float(losses[bad[0]])!r} at candidate {xs[bad[0]]}")
        for k, (state, population, member_losses) in enumerate(
                zip(states, populations, losses.reshape(len(states), -1))):
            best = int(np.argmin(member_losses))  # the first of tied minima
            if member_losses[best] < best_loss[k]:
                best_loss[k], best_x[k] = member_losses[best], population[best]
            tell(state, population, member_losses)
        history.append(best_loss.copy())
        step_sizes.append([state.step_size for state in states])

    return MinimizeResult(best_x, best_loss, np.array(history), np.array(step_sizes))
