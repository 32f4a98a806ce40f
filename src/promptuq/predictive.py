"""Posterior predictive class distributions from a weighted sample set.

Two routes, matching the two access regimes: average the simulator's
probability vectors over the samples, or count decoded labels per class when
probabilities are hidden. Uniform weights give the plain Monte-Carlo
average; general weights let importance-weighted sample sets be evaluated.
"""

from __future__ import annotations

import csv
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


def save_predictive_csv(table: PredictiveTable, path) -> None:
    """Columns p_0..p_{C-1} plus the argmax predicted class."""
    predicted = table.predicted()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"p_{c}" for c in range(table.classes)] + ["predicted"])
        for row, cls in zip(table.probs, predicted):
            writer.writerow([repr(float(v)) for v in row] + [int(cls)])


def load_predictive_csv(path) -> PredictiveTable:
    """A table exactly as ``save_predictive_csv`` writes it: the header
    p_0..p_{C-1},predicted, C + 1 fields in every row, probabilities without
    ``_`` or surrounding whitespace (``float`` takes both, ``repr`` writes
    neither), and each row's ``predicted`` equal to its argmax. Raises
    ValueError for anything else."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            classes = len(header) - 1
            if header != [f"p_{c}" for c in range(classes)] + ["predicted"]:
                raise ValueError(f"header {','.join(header)!r} is not p_0..p_{{C-1}},predicted")
            rows, predicted = [], []
            for record in reader:
                if len(record) != classes + 1:
                    raise ValueError(f"line {reader.line_num}: {len(record)} fields, "
                                     f"the header has {classes + 1}")
                if any("_" in v or v != v.strip() for v in record[:-1]):
                    raise ValueError(f"line {reader.line_num}: a probability holds '_' "
                                     f"or surrounding whitespace")
                rows.append([float(v) for v in record[:-1]])
                predicted.append(record[-1])
        except csv.Error as exc:  # such as a field past the csv module's size limit
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
    table = PredictiveTable(np.asarray(rows))
    for row, (written, cls) in enumerate(zip(predicted, table.predicted())):
        if written != str(cls):
            raise ValueError(f"row {row}: predicted {written!r}, its argmax is {cls}")
    return table
