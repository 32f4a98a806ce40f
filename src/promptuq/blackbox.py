"""The black-box classifier stand-in and its query interface.

The simulator is the only thing inference code is allowed to touch: it maps a
subspace vector z, or a (K, d) stack of them, plus a batch of feature vectors
to class probabilities (logits mode) or discrete labels (labels mode).
``SimulatorHandle`` is the handle every simulator presents, built in or
served, and the one place that admits, checks and charges a query.

The built-in classifier is a frozen two-layer tanh network holding the
task's projection, so z becomes the full prompt A z there alone. The prompt
is pooled down to a few dimensions, scaled to be O(1) under the task prior
(which keeps the loss landscape smooth), and concatenated with the inputs.

Its kernel precomposes that prompt path: the first layer's prompt columns,
the pooling map and the projection fold once into one (hidden, d) map, so a
pre-activation is an input half ``x @ w1[:, :F].T + b1``, computed once per
row tile and shared by every z of the query, plus a z's prompt half. A query
streams through one scratch block allocated per call, and one rule sizes a
pass: it holds at most ``TILE_ROWS`` rows, or one z. Below 2 * ``TILE_ROWS``
inputs, a pass takes ``TILE_ROWS // n`` whole z (at least one) through each
GEMM with the shapes of a single-z call. From 2 * ``TILE_ROWS`` inputs on,
one z at a time goes through row tiles of ``TILE_ROWS`` rows, the ragged tail
merged into the last tile. So the scratch holds an input half, a pass's
hidden units and its prompt halves, fewer than 4 * ``TILE_ROWS`` vectors of
hidden units whatever n and K are (under 2 MiB at 32 hidden units). Bit for
bit means two things here: every row equals its single-z row, whatever K is,
and a tiled query equals the untiled whole-matrix evaluation of the same
precomposed formula. Neither equals the unfolded
``w1 @ [x; pool @ projection @ z]``, which rounds differently (by up to about
6e-15 per logit).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccessDeniedError, BudgetExhaustedError, ConfigError,
                     NumericalBreakdownError, check_positive)
from .prompt_space import PriorSpec, check_sigma, make_projection, sample_prior, substream

# Amplifies the pooled prompt block's first-layer weights so a random prompt
# relabels data near chance level rather than leaving the labeling
# input-dominated.
PROMPT_GAIN = 3.0

# The one row budget of a query pass (the module docstring gives the rule).
# Callers that split a query use it too: ``predictive`` sends TILE_ROWS // n
# samples, but at least eight, so a wide query's tiles share their input half
# among eight z. OpenBLAS gives a row slice of at least 1,024 rows the whole
# matrix's bits, so every tile keeps them.
TILE_ROWS = 2048

# What a simulator may reveal per (z, input) pair; every simulator answers labels.
MODES = ("logits", "labels")


@dataclass
class EvalBudget:
    """Monotone counter of simulator forward passes, one per (z, input) pair."""

    used: int = 0
    limit: int | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def charge(self, count: int) -> None:
        with self._lock:
            if self.limit is not None and self.used + count > self.limit:
                raise BudgetExhaustedError(
                    f"evaluation budget exhausted: {self.used} used + {count} requested "
                    f"> limit {self.limit}")
            self.used += count


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (rows, C) array, computed in place and returned.

    The row maximum is a column loop of ``np.maximum``, which equals
    ``max(axis=-1)`` exactly and is faster at few classes. Below 8 classes
    the row sum is a column loop of ``+=`` too, which equals ``sum(axis=-1)``
    exactly there; from 8 classes on numpy's pairwise sum unrolls by 8 and
    adds in another order, so ``sum(axis=-1)`` stays."""
    top = logits[:, 0].copy()
    for column in range(1, logits.shape[1]):
        np.maximum(top, logits[:, column], out=top)
    logits -= top[:, None]
    np.exp(logits, out=logits)
    if logits.shape[1] < 8:
        total = top  # the maximum is spent; its buffer takes the row sum
        total[:] = logits[:, 0]
        for column in range(1, logits.shape[1]):
            total += logits[:, column]
        logits /= total[:, None]
    else:
        logits /= logits.sum(axis=-1, keepdims=True)
    return logits


@dataclass(frozen=True)
class FrozenClassifier:
    """Two-layer net over z: logits = w2 @ tanh(w1 @ [x; pool @ projection @ z] + b1) + b2,
    evaluated precomposed as w2 @ tanh((w1[:, :F] @ x + b1) + prompt_map @ z) + b2
    with ``prompt_map = (w1[:, F:] @ pool) @ projection``, folded once at
    construction."""

    projection: np.ndarray  # (prompt_dim, subspace_dim)
    w1: np.ndarray          # (hidden, feature_dim + pooled_dim)
    b1: np.ndarray          # (hidden,)
    w2: np.ndarray          # (classes, hidden)
    b2: np.ndarray          # (classes,)
    pool: np.ndarray        # (pooled_dim, prompt_dim)
    prompt_map: np.ndarray = field(init=False, repr=False, compare=False)  # (hidden, d)
    _prompt_gain: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("projection", "w1", "b1", "w2", "b2", "pool")
        hidden, classes = self.w1.shape[:1], self.w2.shape[:1]
        if not (self.w1.ndim == self.w2.ndim == self.pool.ndim == self.projection.ndim == 2
                and self.b1.shape == hidden == self.w2.shape[1:] and self.b2.shape == classes
                and self.feature_dim > 0 and len(self.projection) == self.prompt_dim):
            raise ValueError("classifier weight shapes disagree: " + ", ".join(
                f"{name} {getattr(self, name).shape}" for name in names))
        for name in names:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"classifier weight {name} contains non-finite entries")
        # the prompt path folded once, in this grouping: z -> w1's prompt half
        object.__setattr__(self, "prompt_map",
                           (self.w1[:, self.feature_dim:] @ self.pool) @ self.projection)
        # every entry of pool @ (projection @ z) is at most this times max |z|
        object.__setattr__(self, "_prompt_gain", float(
            (np.abs(self.pool) @ np.abs(self.projection).sum(axis=1)).max()))

    @property
    def classes(self) -> int:
        return self.w2.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1] - self.pool.shape[0]

    @property
    def prompt_dim(self) -> int:
        return self.pool.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.projection.shape[1]

    @classmethod
    def create(cls, feature_dim: int, projection: np.ndarray, classes: int, hidden: int,
               seed: int, pooled_dim: int | None = None,
               prompt_scale: float = 1.0) -> "FrozenClassifier":
        """Draw weights deterministically from ``seed`` around ``projection``.

        ``prompt_scale`` is the expected standard deviation of full-prompt
        entries under the task prior; the pooling map is shrunk by it so the
        pooled prompt is O(1) regardless of the prior scale.
        """
        if classes < 2:
            raise ValueError("need at least two classes")
        prompt_dim = len(projection)
        if min(feature_dim, prompt_dim, hidden) < 1:
            raise ValueError("dimensions must be positive")
        if pooled_dim is None:
            pooled_dim = min(prompt_dim, 8)
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 1.5 / np.sqrt(feature_dim + pooled_dim),
                        size=(hidden, feature_dim + pooled_dim))
        w1[:, feature_dim:] *= PROMPT_GAIN
        b1 = rng.normal(0.0, 0.2, size=hidden)
        w2 = rng.normal(0.0, 2.0 / np.sqrt(hidden), size=(classes, hidden))
        b2 = rng.normal(0.0, 0.1, size=classes)
        pool = rng.normal(0.0, 1.0 / (np.sqrt(prompt_dim) * prompt_scale),
                          size=(pooled_dim, prompt_dim))
        return cls(projection, w1, b1, w2, b2, pool)

    def logits(self, zs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """The logits of every (z, input) pair of a (K, d) stack and (n, F)
        inputs, (K * n, C) in z-major order, tiled as the module docstring
        says. A z whose prompt ``pool @ (projection @ z)`` is not finite
        answers non-finite rows, as the unfolded first layer did, although its
        prompt half may be finite."""
        n, features = inputs.shape
        width = len(self.b1)
        out = np.empty((len(zs) * n, self.classes))
        if not len(out):
            return out
        tile = n if n < 2 * TILE_ROWS else TILE_ROWS
        tiles = n // tile
        step = min(len(zs), max(1, TILE_ROWS // n))
        widest = n - (tiles - 1) * tile  # the last tile takes the ragged tail
        # one block, not several: glibc handed two blocks of a full pass's size
        # back to the OS after every call, about 250 page faults per query
        scratch = np.empty((widest + step + step * widest) * width)
        prompt_buffer = scratch[widest * width:(widest + step) * width]
        hidden_buffer = scratch[(widest + step) * width:]
        per_z = out.reshape(len(zs), n, self.classes)
        for t in range(tiles):
            start = t * tile
            stop = n if t == tiles - 1 else start + tile
            rows = stop - start
            input_half = scratch[:rows * width].reshape(rows, width)
            np.matmul(inputs[start:stop], self.w1[:, :features].T, out=input_half)
            input_half += self.b1
            for first in range(0, len(zs), step):
                chunk = zs[first:first + step]
                prompt_half = prompt_buffer[:len(chunk) * width].reshape(len(chunk), width, 1)
                np.matmul(self.prompt_map, chunk[..., None], out=prompt_half)
                hidden = hidden_buffer[:len(chunk) * rows * width].reshape(len(chunk), rows, width)
                np.add(input_half, prompt_half.reshape(len(chunk), 1, width), out=hidden)
                np.tanh(hidden, out=hidden)
                logits = per_z[first:first + len(chunk), start:stop]
                np.matmul(hidden, self.w2.T, out=logits)
                logits += self.b2
        # prompt_map @ z can stay finite where pool @ (projection @ z) overflows;
        # no prompt entry reaches 1e300 while max |z| * _prompt_gain stays below
        # it, so only a stack past that bound runs the chain
        if float(np.abs(zs).max()) * self._prompt_gain >= 1e300:
            prompts = np.matmul(self.pool, np.matmul(self.projection, zs.T))
            per_z[~np.isfinite(prompts).all(axis=0)] = np.nan
        return out


class SimulatorHandle:
    """The one handle every simulator presents: the built-in
    ``SyntheticSimulator`` and the protocol client ``ExternalSimulator``.

    ``modes`` names what a handle reveals: ``("logits", "labels")``, or
    ``("labels",)`` for a labels-only one, which refuses ``query_logits``
    with ``AccessDeniedError``. The four dimensions named in ``DIMENSIONS``
    are plain attributes set once; the protocol handshake carries them under
    those names. ``budget`` starts unlimited, and a handle takes a limit by
    replacing it, ``sim.budget = EvalBudget(limit=n)``; a query that would
    cross it raises ``BudgetExhaustedError`` naming the pairs used, the pairs
    requested and the limit. ``close()`` is the one way to end a handle,
    which is not a context manager.

    A query takes one z or a (K, d) stack and answers every (z, input) pair
    in z-major order: rows k*n .. k*n + n - 1 belong to z number k. Every
    query passes ``_admit`` first, which refuses it before anything is
    charged and then charges all K * n pairs, so a query refused in process
    is refused served, and an empty one (K = 0 or n = 0) is an empty answer
    on both.
    """

    DIMENSIONS = ("classes", "feature_dim", "prompt_dim", "subspace_dim")

    def __init__(self, modes, classes: int, feature_dim: int, prompt_dim: int,
                 subspace_dim: int):
        self.modes = tuple(modes)
        self.classes, self.feature_dim = classes, feature_dim
        self.prompt_dim, self.subspace_dim = prompt_dim, subspace_dim
        self.budget = EvalBudget()

    def close(self) -> None:
        """Nothing to release; present so every simulator a run opens ends alike."""

    def _admit(self, mode: str, z, inputs, seeds=None):
        """A query's z as a (K, d) matrix (one z is K = 1), its inputs as an
        (n, F) matrix and its sample-decode seeds as ints, its K * n pairs
        charged. Refused before anything is charged: AccessDeniedError unless
        ``mode`` is one of ``modes``; ValueError unless the shapes hold, with
        d = ``subspace_dim`` and F = ``feature_dim``, every entry is finite
        and, when ``seeds`` are given, there is one integer (not a bool) in
        [0, 2^64) per z."""
        if mode not in self.modes:
            raise AccessDeniedError("simulator is labels-only; probabilities are hidden")
        zs = np.asarray(z, dtype=float)
        if zs.ndim not in (1, 2):
            raise ValueError(f"z must be a (d,) vector or a (K, d) matrix, got shape {zs.shape}")
        zs = zs if zs.ndim == 2 else zs[None]
        if zs.shape[1] != self.subspace_dim:
            raise ValueError(f"z has {zs.shape[1]} entries, expected {self.subspace_dim}")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.ndim != 2 or inputs.shape[1] != self.feature_dim:
            raise ValueError(f"inputs must be rows of {self.feature_dim} features, "
                             f"got shape {inputs.shape}")
        if not (np.isfinite(zs).all() and np.isfinite(inputs).all()):
            raise ValueError("z and inputs must hold finite numbers only")
        if seeds is not None:
            try:
                ints = [-1 if isinstance(seed, (bool, np.bool_)) else operator.index(seed)
                        for seed in seeds]
            except TypeError:
                ints = None
            if ints is None or len(ints) != len(zs) or not all(0 <= v < 2 ** 64 for v in ints):
                raise ValueError(f"sample decode needs one integer seed in [0, 2^64) per z "
                                 f"({len(zs)}), got {seeds!r}")
            seeds = ints
        self.budget.charge(len(zs) * len(inputs))
        return zs, inputs, seeds


class SyntheticSimulator(SimulatorHandle):
    """The handle over a frozen classifier; ``allow_logits=False`` makes it
    labels-only. Each row of a query equals the single-z query's row bit for
    bit, whatever K is. A query changes only the budget counter, so
    concurrent readers are safe."""

    def __init__(self, classifier: FrozenClassifier, allow_logits: bool = True):
        super().__init__(MODES if allow_logits else ("labels",),
                         *(getattr(classifier, name) for name in self.DIMENSIONS))
        self.classifier = classifier

    def _raw_logits(self, zs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Logits of every pair of an admitted query, (K * n, classes);
        NumericalBreakdownError, the pairs staying charged, if finite numbers
        overflow the model into a non-finite row."""
        with np.errstate(over="ignore", invalid="ignore"):  # the isfinite check below
            logits = self.classifier.logits(zs, inputs)
        if not np.isfinite(logits).all():
            raise NumericalBreakdownError("the model overflowed: a query row is not finite")
        return logits

    def query_logits(self, z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probability vector per (z, input) pair, shape (K * n, classes)."""
        zs, inputs, _ = self._admit("logits", z, inputs)
        return softmax(self._raw_logits(zs, inputs))

    def query_labels(self, z: np.ndarray, inputs: np.ndarray, seeds=None) -> np.ndarray:
        """Discrete label per (z, input) pair, shape (K * n,): argmax decode
        without ``seeds``, ties toward the lowest index; with one u64 seed per
        z, the sample decode of ``sampled_labels``."""
        if seeds is not None:
            return self.sampled_labels(z, inputs, seeds)
        zs, inputs, _ = self._admit("labels", z, inputs)
        return np.argmax(self._raw_logits(zs, inputs), axis=1)

    def sampled_labels(self, z: np.ndarray, inputs: np.ndarray, seeds) -> np.ndarray:
        """Categorical draws, one per (z, input) pair: z number k's uniforms
        come from default_rng(seeds[k]) alone, so its labels do not depend on
        the other rows, and in-process and served sampling are bit-identical."""
        zs, inputs, seeds = self._admit("labels", z, inputs, seeds)
        probs = softmax(self._raw_logits(zs, inputs))
        u = np.concatenate([np.empty(0)] + [
            np.random.default_rng(np.uint64(seed)).random(len(inputs)) for seed in seeds])
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        return np.asarray((u[:, None] > cdf).sum(axis=1), dtype=np.int64)


@dataclass(frozen=True)
class LabeledSet:
    """A batch of feature vectors with integer class labels."""

    X: np.ndarray  # (n, feature_dim)
    y: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class TaskConfig:
    """A synthetic task, its fields the keys of a task config; a bad value
    raises ``ConfigError`` naming its key, such as ``n_train``."""

    subspace_dim: int
    prompt_dim: int
    feature_dim: int
    classes: int
    hidden: int
    n_train: int
    n_test: int
    n_ood: int
    ood_shift: float
    seed: int
    prior_sigma: float = 50.0
    label_noise: float = 0.0
    pooled_dim: int | None = None

    def __post_init__(self):
        # pooled_dim 0 would leave the prompt out of the model
        check_positive(self, "subspace_dim", "prompt_dim", "feature_dim", "hidden",
                       "n_train", "n_test", "n_ood", "pooled_dim")
        if self.subspace_dim > self.prompt_dim:
            raise ConfigError("subspace_dim", "must be at most prompt_dim")
        if self.classes < 2:
            raise ConfigError("classes", "must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError("label_noise", "must be in [0, 1)")
        if not np.isfinite(2.0 * self.ood_shift):  # the far-OOD mean's norm
            raise ConfigError("ood_shift", f"must be finite when doubled, "
                                           f"got {self.ood_shift!r}")
        check_sigma(self.prior_sigma, "prior_sigma")


@dataclass(frozen=True)
class SyntheticTask:
    """A fully materialized benchmark task: simulator weights, data splits, truth."""

    config: TaskConfig
    classifier: FrozenClassifier
    prior: PriorSpec
    train: LabeledSet
    test: LabeledSet
    near_ood: np.ndarray
    far_ood: np.ndarray
    z_star: np.ndarray

    def simulator(self, allow_logits: bool = True) -> SyntheticSimulator:
        """A fresh query handle with its own budget counter."""
        return SyntheticSimulator(self.classifier, allow_logits=allow_logits)

    def split(self, name: str) -> LabeledSet:
        """The split named train, test, near_ood or far_ood; OOD rows have y = -1."""
        rows = getattr(self, name)
        return rows if isinstance(rows, LabeledSet) else LabeledSet(
            rows, np.full(len(rows), -1, dtype=np.int64))


def _flip_labels(labels: np.ndarray, fraction: float, classes: int,
                 rng: np.random.Generator) -> np.ndarray:
    if fraction <= 0.0:
        return labels
    flipped = labels.copy()
    n_flip = int(round(fraction * len(labels)))
    idx = rng.choice(len(labels), size=n_flip, replace=False)
    flipped[idx] = (flipped[idx] + rng.integers(1, classes, size=n_flip)) % classes
    return flipped


def make_synthetic_task(cfg: TaskConfig) -> SyntheticTask:
    """Build a task deterministically from its config.

    Ground truth z_star is a prior draw; every input is labeled by argmax
    decoding the simulator at z_star, then optionally corrupted by label
    noise. Near-OOD inputs are in-distribution draws shifted by ``ood_shift``
    along a fixed random direction; far-OOD inputs come from
    N(mu, 2 I) with ||mu|| = 2 * ood_shift along an independent direction.
    """
    rng_proj, rng_net, rng_zstar, rng_inputs, rng_ood, rng_noise = (
        substream(cfg.seed, i) for i in range(6))

    projection = make_projection(cfg.subspace_dim, cfg.prompt_dim,
                                 seed=int(rng_proj.integers(2 ** 63)))
    classifier = FrozenClassifier.create(
        cfg.feature_dim, projection, cfg.classes, cfg.hidden,
        seed=int(rng_net.integers(2 ** 63)), pooled_dim=cfg.pooled_dim,
        prompt_scale=cfg.prior_sigma)
    prior = PriorSpec(cfg.subspace_dim, cfg.prior_sigma)

    labeler = SyntheticSimulator(classifier)
    X_train = rng_inputs.normal(size=(cfg.n_train, cfg.feature_dim))
    X_test = rng_inputs.normal(size=(cfg.n_test, cfg.feature_dim))

    # Redraw z_star until every class holds at least half its proportional
    # share of train labels (few-shot sets are built per class); keep the most
    # balanced draw if no candidate reaches the threshold.
    floor = max(1, cfg.n_train // (2 * cfg.classes))
    best_min = -1
    for _ in range(200):
        candidate = sample_prior(prior, 1, rng_zstar)[0]
        counts = np.bincount(labeler.query_labels(candidate, X_train),
                             minlength=cfg.classes)
        if counts.min() > best_min:
            best_min = int(counts.min())
            z_star = candidate
        if best_min >= floor:
            break

    y_train = labeler.query_labels(z_star, X_train)
    y_test = labeler.query_labels(z_star, X_test)
    y_train = _flip_labels(y_train, cfg.label_noise, cfg.classes, rng_noise)
    y_test = _flip_labels(y_test, cfg.label_noise, cfg.classes, rng_noise)

    direction = rng_ood.normal(size=cfg.feature_dim)
    direction /= np.linalg.norm(direction)
    near = rng_ood.normal(size=(cfg.n_ood, cfg.feature_dim)) + cfg.ood_shift * direction
    far_direction = rng_ood.normal(size=cfg.feature_dim)
    far_direction /= np.linalg.norm(far_direction)
    far_mu = 2.0 * cfg.ood_shift * far_direction
    far = far_mu + np.sqrt(2.0) * rng_ood.normal(size=(cfg.n_ood, cfg.feature_dim))

    return SyntheticTask(cfg, classifier, prior,
                         LabeledSet(X_train, y_train), LabeledSet(X_test, y_test),
                         near, far, z_star)
