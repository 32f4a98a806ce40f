"""The black-box classifier stand-in and its query interface.

The simulator is the only thing inference code is allowed to touch: it maps a
subspace vector z, or a (K, d) stack of them, plus a batch of feature vectors
to class probabilities (logits mode) or discrete labels (labels mode),
enforces the access policy, and charges every (z, input) pair against an
evaluation budget.

Every rule on what a query may hold is here: ``check_query`` and
``check_decode_seeds`` run before anything is charged, and the protocol
client and server answer through them too, so a query refused in process is
refused served, and an empty one (K = 0 or n = 0) is an empty answer on both.

The built-in classifier is a frozen two-layer tanh network. The full prompt
enters through a linear pooling down to a few dimensions, concatenated with
the input features; the pooling is scaled so the pooled values are O(1) when
z is drawn from the task prior, which keeps the loss landscape smooth.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (AccessDeniedError, BudgetExhaustedError, ConfigError,
                     NumericalBreakdownError, check_positive)
from .prompt_space import (PriorSpec, ProjectionSpec, check_sigma, make_projection,
                           project, sample_prior)

# Amplifies the pooled prompt block's first-layer weights so a random prompt
# relabels data near chance level rather than leaving the labeling
# input-dominated.
PROMPT_GAIN = 3.0

# At most this many (z, input) pairs go through one kernel call; with 32 hidden
# units, calls of 960-1536 pairs cost twice as much per pair (allocator churn).
MAX_KERNEL_PAIRS = 512


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
                    f"> limit {self.limit}", used=self.used, limit=self.limit)
            self.used += count


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class FrozenClassifier:
    """Fixed-weight two-layer network: logits = w2 @ tanh(w1 @ [x; pool @ prompt] + b1) + b2."""

    w1: np.ndarray    # (hidden, feature_dim + pooled_dim)
    b1: np.ndarray    # (hidden,)
    w2: np.ndarray    # (classes, hidden)
    b2: np.ndarray    # (classes,)
    pool: np.ndarray  # (pooled_dim, prompt_dim)
    classes: int
    seed: int

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2", "pool"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"classifier weight {name} contains non-finite entries")

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1] - self.pool.shape[0]

    @property
    def prompt_dim(self) -> int:
        return self.pool.shape[1]

    @classmethod
    def create(cls, feature_dim: int, prompt_dim: int, classes: int, hidden: int,
               seed: int, pooled_dim: int | None = None,
               prompt_scale: float = 1.0) -> "FrozenClassifier":
        """Draw weights deterministically from ``seed``.

        ``prompt_scale`` is the expected standard deviation of full-prompt
        entries under the task prior; the pooling map is shrunk by it so the
        pooled prompt is O(1) regardless of the prior scale.
        """
        if classes < 2:
            raise ValueError("need at least two classes")
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
        return cls(w1, b1, w2, b2, pool, classes, int(seed))

    def logits(self, prompts: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Logits for a (D,) prompt, (n, C), or for each row of a (K, D) stack,
        (K, n, C).

        Each stacked matmul makes one BLAS call per prompt with the shapes of
        a single-prompt call, so every block equals its single-prompt result
        bit for bit, whatever the stack size.
        """
        features = inputs.shape[1]
        pooled = np.matmul(self.pool, prompts[..., None])[..., 0]
        batch = np.empty(pooled.shape[:-1] + (len(inputs), features + len(self.pool)))
        batch[..., :features] = inputs
        batch[..., features:] = pooled[..., None, :]
        hidden = np.matmul(batch, self.w1.T)
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        logits = np.matmul(hidden, self.w2.T)
        logits += self.b2
        return logits


def check_query(z, inputs, feature_dim: int,
                subspace_dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A query's z as a (K, d) matrix (one z is K = 1) and its inputs as an
    (n, feature_dim) matrix; ValueError unless they have those shapes, with
    d = ``subspace_dim`` where the caller knows it, and all entries finite."""
    zs = np.asarray(z, dtype=float)
    if zs.ndim not in (1, 2):
        raise ValueError(f"z must be a (d,) vector or a (K, d) matrix, got shape {zs.shape}")
    zs = zs if zs.ndim == 2 else zs[None]
    if subspace_dim is not None and zs.shape[1] != subspace_dim:
        raise ValueError(f"z has {zs.shape[1]} entries, expected {subspace_dim}")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.ndim != 2 or inputs.shape[1] != feature_dim:
        raise ValueError(f"inputs must be rows of {feature_dim} features, "
                         f"got shape {inputs.shape}")
    if not (np.isfinite(zs).all() and np.isfinite(inputs).all()):
        raise ValueError("z and inputs must hold finite numbers only")
    return zs, inputs


def check_decode_seeds(seeds, rows: int) -> list[int]:
    """The sample-decode seeds as ints; ValueError, before anything is charged
    or sent, unless there is one integer (not a bool) in [0, 2^64) per z."""
    try:
        values = [-1 if isinstance(seed, (bool, np.bool_)) else operator.index(seed)
                  for seed in seeds]
    except TypeError:
        values = None
    if values is None or len(values) != rows or not all(0 <= v < 2 ** 64 for v in values):
        raise ValueError(f"sample decode needs one integer seed in [0, 2^64) per z "
                         f"({rows}), got {seeds!r}")
    return values


class SyntheticSimulator:
    """Query handle binding a frozen classifier to a projection.

    A query takes one z or a (K, d) stack and answers every (z, input) pair
    in z-major order: rows k*n .. k*n + n - 1 belong to z number k. Each row
    equals the single-z query's row bit for bit, whatever K is.

    Immutable except for the budget counter, so concurrent readers are safe.
    """

    def __init__(self, classifier: FrozenClassifier, projection: ProjectionSpec,
                 allow_logits: bool = True, budget: EvalBudget | None = None):
        if projection.prompt_dim != classifier.prompt_dim:
            raise ValueError(
                f"projection prompt_dim {projection.prompt_dim} != classifier "
                f"prompt_dim {classifier.prompt_dim}")
        self.classifier = classifier
        self.projection = projection
        self.allow_logits = allow_logits
        self.budget = budget if budget is not None else EvalBudget()

    @property
    def classes(self) -> int:
        return self.classifier.classes

    @property
    def feature_dim(self) -> int:
        return self.classifier.feature_dim

    @property
    def subspace_dim(self) -> int:
        return self.projection.subspace_dim

    @property
    def prompt_dim(self) -> int:
        return self.projection.prompt_dim

    def _raw_logits(self, zs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Logits of every pair of a checked query, (K * n, classes), charged up
        front; NumericalBreakdownError, the pairs staying charged, if finite
        numbers overflow the model into a non-finite row."""
        n = len(inputs)
        self.budget.charge(len(zs) * n)
        logits = np.empty((len(zs) * n, self.classes))
        step = max(1, MAX_KERNEL_PAIRS // max(n, 1))
        with np.errstate(over="ignore", invalid="ignore"):  # the isfinite check below
            for start in range(0, len(zs), step):
                chunk = zs[start:start + step]
                logits[start * n:(start + len(chunk)) * n] = self.classifier.logits(
                    project(self.projection, chunk), inputs).reshape(-1, self.classes)
        if not np.isfinite(logits).all():
            raise NumericalBreakdownError("the model overflowed: a query row is not finite")
        return logits

    def query_logits(self, z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probability vector per (z, input) pair, shape (K * n, classes)."""
        if not self.allow_logits:
            raise AccessDeniedError("simulator is labels-only; probabilities are hidden")
        zs, inputs = check_query(z, inputs, self.feature_dim, self.subspace_dim)
        return softmax(self._raw_logits(zs, inputs))

    def query_labels(self, z: np.ndarray, inputs: np.ndarray, seeds=None) -> np.ndarray:
        """Discrete label per (z, input) pair, shape (K * n,): argmax decode
        without ``seeds``, ties toward the lowest index; with one u64 seed per
        z, the sample decode of ``sampled_labels``."""
        if seeds is not None:
            return self.sampled_labels(z, inputs, seeds)
        zs, inputs = check_query(z, inputs, self.feature_dim, self.subspace_dim)
        return np.argmax(self._raw_logits(zs, inputs), axis=1)

    def sampled_labels(self, z: np.ndarray, inputs: np.ndarray, seeds) -> np.ndarray:
        """Categorical draws, one per (z, input) pair: z number k's uniforms
        come from default_rng(seeds[k]) alone, so its labels do not depend on
        the other rows, and in-process and served sampling are bit-identical."""
        zs, inputs = check_query(z, inputs, self.feature_dim, self.subspace_dim)
        seeds = check_decode_seeds(seeds, len(zs))
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
    projection: ProjectionSpec
    prior: PriorSpec
    train: LabeledSet
    test: LabeledSet
    near_ood: np.ndarray
    far_ood: np.ndarray
    z_star: np.ndarray

    def simulator(self, allow_logits: bool = True,
                  budget_limit: int | None = None) -> SyntheticSimulator:
        """A fresh query handle with its own budget counter."""
        return SyntheticSimulator(self.classifier, self.projection,
                                  allow_logits=allow_logits,
                                  budget=EvalBudget(limit=budget_limit))

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
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(cfg.seed).spawn(6)]
    rng_proj, rng_net, rng_zstar, rng_inputs, rng_ood, rng_noise = streams

    projection = make_projection(cfg.subspace_dim, cfg.prompt_dim,
                                 seed=int(rng_proj.integers(2 ** 63)))
    classifier = FrozenClassifier.create(
        cfg.feature_dim, cfg.prompt_dim, cfg.classes, cfg.hidden,
        seed=int(rng_net.integers(2 ** 63)), pooled_dim=cfg.pooled_dim,
        prompt_scale=cfg.prior_sigma)
    prior = PriorSpec(cfg.subspace_dim, cfg.prior_sigma)

    labeler = SyntheticSimulator(classifier, projection)
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

    return SyntheticTask(cfg, classifier, projection, prior,
                         LabeledSet(X_train, y_train), LabeledSet(X_test, y_test),
                         near, far, z_star)


def task_config_to_dict(cfg: TaskConfig) -> dict:
    return asdict(cfg)
