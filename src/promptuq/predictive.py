"""Posterior predictive class distributions from a weighted sample set.

Two routes, matching the two access regimes: average the simulator's
probability vectors over the samples, or count decoded labels per class when
probabilities are hidden. Uniform weights give the plain Monte-Carlo
average; general weights let importance-weighted sample sets be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackbox import TILE_ROWS
from .estimators import PosteriorEnsemble
from .uqeval import check_probability_table


@dataclass(frozen=True)
class PredictiveTable:
    """One class-probability row per input."""

    probs: np.ndarray  # (n_inputs, classes)

    def __post_init__(self):
        check_probability_table(self.probs)

    @property
    def classes(self) -> int:
        return self.probs.shape[1]

    def predicted(self) -> np.ndarray:
        """Argmax class per row, ties to the lowest index."""
        return np.argmax(self.probs, axis=1)


def _sample_blocks(ensemble: PosteriorEnsemble, inputs: np.ndarray, query):
    """(weight, rows) of every sample in sample order, the rows being that
    sample's answers for the ``n`` inputs; ``query(chunk, inputs)`` answers a
    chunk with its z-major rows. A chunk is ``TILE_ROWS // n`` samples, the
    kernel's own pass, but at least eight, so a wide query's row tiles share
    their input half among eight z."""
    n = len(inputs)
    step = max(8, TILE_ROWS // max(n, 1))
    for start in range(0, ensemble.size, step):
        chunk = ensemble.samples[start:start + step]
        rows = query(chunk, inputs)
        yield from zip(ensemble.weights[start:start + step],
                       rows.reshape((len(chunk), n) + rows.shape[1:]))


def predictive_from_logits(ensemble: PosteriorEnsemble, sim,
                           inputs: np.ndarray) -> PredictiveTable:
    """Weighted average of per-sample probability vectors, in sample order."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    rows = np.zeros((len(inputs), sim.classes))
    for w, probs in _sample_blocks(ensemble, inputs, sim.query_logits):
        rows += w * probs
    return PredictiveTable(rows)


def predictive_from_labels(ensemble: PosteriorEnsemble, sim, inputs: np.ndarray,
                           rng: np.random.Generator | None = None) -> PredictiveTable:
    """Weighted per-class frequency of decoded labels; never touches probabilities.

    Without ``rng`` every sample's labels are argmax-decoded. With it, they are
    sample-decoded, each sample from its own u64 seed drawn from ``rng`` in
    sample order (one draw of a chunk's seeds equals that many single draws).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    rows = np.zeros((len(inputs), sim.classes))
    positions = np.arange(len(inputs))

    def query(chunk, inputs):
        seeds = (None if rng is None
                 else rng.integers(0, 2 ** 64, size=len(chunk), dtype=np.uint64))
        return sim.query_labels(chunk, inputs, seeds)

    for w, labels in _sample_blocks(ensemble, inputs, query):
        rows[positions, labels] += w
    return PredictiveTable(rows)
