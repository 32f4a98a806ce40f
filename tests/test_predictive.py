import numpy as np
import pytest

from promptuq.blackbox import TILE_ROWS
from promptuq.errors import AccessDeniedError

from promptuq.estimators import PosteriorEnsemble
from promptuq.predictive import (PredictiveTable, load_predictive_csv,
                                 predictive_from_labels, predictive_from_logits,
                                 save_predictive_csv)


class StubSim:
    """Fixed per-sample outputs keyed by the first coordinate of z."""

    def __init__(self, classes, logits_rows=None, label_rows=None):
        self.classes = classes
        self._logits_rows = logits_rows or {}
        self._label_rows = label_rows or {}

    def query_logits(self, z, inputs):
        n = len(np.atleast_2d(inputs))
        return np.concatenate([
            np.tile(np.asarray(self._logits_rows[int(row[0])], dtype=float), (n, 1))
            for row in np.atleast_2d(z)])

    def query_labels(self, z, inputs, seeds=None):
        n = len(np.atleast_2d(inputs))
        return np.concatenate([np.full(n, self._label_rows[int(row[0])], dtype=np.int64)
                               for row in np.atleast_2d(z)])


def ensemble_of(indices, weights):
    samples = np.array([[float(i), 0.0] for i in indices])
    return PosteriorEnsemble(samples, np.asarray(weights, dtype=float), "ensembles")


def test_single_sample_equals_query_logits(criterion_task):
    sim = criterion_task.simulator()
    z = np.random.default_rng(0).normal(size=8) * 50
    ensemble = PosteriorEnsemble(z[None, :], np.array([1.0]), "point_estimate")
    table = predictive_from_logits(ensemble, sim, criterion_task.test.X)
    assert np.array_equal(table.probs,
                          sim.query_logits(z, criterion_task.test.X))


def test_two_sample_average():
    sim = StubSim(2, logits_rows={0: [1.0, 0.0], 1: [0.0, 1.0]})
    table = predictive_from_logits(ensemble_of([0, 1], [0.5, 0.5]), sim,
                                   np.zeros((3, 2)))
    assert np.allclose(table.probs, 0.5)


def test_logits_path_matches_brute_force(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(5, 8)) * 50
    weights = rng.dirichlet(np.ones(5))
    ensemble = PosteriorEnsemble(samples, weights, "ensembles")
    table = predictive_from_logits(ensemble, sim, criterion_task.test.X)

    expected = np.zeros_like(table.probs)
    for w, z in zip(weights, samples):
        expected += w * sim.query_logits(z, criterion_task.test.X)
    assert np.abs(table.probs - expected).max() < 1e-12


def test_logits_path_chunks_accumulate_in_sample_order(criterion_task):
    # 40 samples x 64 inputs span two query chunks, 32 samples and 8; at wide n
    # a chunk holds eight samples, so 19 over 2054 inputs take ceil(19 / 8) queries
    for n, size, chunks in ((64, 40, [32, 8]), (TILE_ROWS + 6, 19, [8, 8, 3])):
        sim = criterion_task.simulator()
        rng = np.random.default_rng(4)
        ensemble = PosteriorEnsemble(rng.normal(size=(size, 8)) * 50,
                                     rng.dirichlet(np.ones(size)), "ensembles")
        x = rng.normal(size=(n, 16))
        query, sent = sim.query_logits, []
        sim.query_logits = lambda zs, inputs: sent.append(len(zs)) or query(zs, inputs)
        table = predictive_from_logits(ensemble, sim, x)
        assert sent == chunks
        expected = np.zeros_like(table.probs)
        for w, z in zip(ensemble.weights, ensemble.samples):
            expected += w * query(z, x)
        assert np.array_equal(table.probs, expected)
        assert sim.budget.used == 2 * size * n


@pytest.mark.parametrize("decode", ["argmax", "sample"])
@pytest.mark.parametrize("n", [1, 256, TILE_ROWS + 6])
def test_labels_path_chunks_equal_a_per_sample_reference(criterion_task, n, decode):
    # enough samples to cross a chunk edge: 2048 a chunk at n = 1, 8 at 256, and
    # 8 at 2054, where TILE_ROWS // n is 0 and the eight-sample floor holds
    size = max(8, TILE_ROWS // n) + 3
    rng = np.random.default_rng(n)
    ensemble = PosteriorEnsemble(rng.normal(size=(size, 8)) * 50,
                                 rng.dirichlet(np.ones(size)), "abc_smc")
    x = rng.normal(size=(n, 16))
    sim = criterion_task.simulator()
    chunked_rng = np.random.default_rng(7) if decode == "sample" else None
    reference_rng = np.random.default_rng(7) if decode == "sample" else None
    table = predictive_from_labels(ensemble, sim, x, chunked_rng)
    expected = np.zeros((n, 2))
    for w, z in zip(ensemble.weights, ensemble.samples):
        seeds = (None if reference_rng is None
                 else [int(reference_rng.integers(0, 2 ** 64, dtype=np.uint64))])
        expected[np.arange(n), sim.query_labels(z, x, seeds)] += w
    assert np.array_equal(table.probs, expected)
    assert sim.budget.used == 2 * size * n
    if decode == "sample":  # both streams stand at the same position afterwards
        assert chunked_rng.integers(2 ** 63) == reference_rng.integers(2 ** 63)


def test_labels_path_indicator_count():
    sim = StubSim(2, label_rows={0: 0, 1: 0, 2: 1, 3: 0})
    table = predictive_from_labels(ensemble_of([0, 1, 2, 3], [0.25] * 4), sim,
                                   np.zeros((2, 2)))
    assert np.allclose(table.probs, [[0.75, 0.25], [0.75, 0.25]])


def test_labels_path_single_sample_is_one_hot():
    sim = StubSim(3, label_rows={0: 2})
    table = predictive_from_labels(ensemble_of([0], [1.0]), sim, np.zeros((4, 2)))
    assert np.array_equal(table.probs, np.tile([0.0, 0.0, 1.0], (4, 1)))


def test_labels_path_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        size = int(rng.integers(1, 9))
        classes = int(rng.integers(2, 5))
        labels = rng.integers(classes, size=size)
        weights = rng.dirichlet(np.ones(size))
        sim = StubSim(classes, label_rows={i: int(labels[i]) for i in range(size)})
        table = predictive_from_labels(ensemble_of(range(size), weights), sim,
                                       np.zeros((1, 2)))
        expected = np.zeros(classes)
        for s in range(size):
            for c in range(classes):
                if labels[s] == c:
                    expected[c] += weights[s]
        assert np.abs(table.probs[0] - expected).max() < 1e-12


def test_identical_samples_collapse(criterion_task):
    sim = criterion_task.simulator()
    z = np.random.default_rng(3).normal(size=8) * 50
    ensemble = PosteriorEnsemble(np.tile(z, (6, 1)), np.full(6, 1 / 6), "ensembles")

    logits_table = predictive_from_logits(ensemble, sim, criterion_task.test.X[:5])
    single = sim.query_logits(z, criterion_task.test.X[:5])
    assert np.abs(logits_table.probs - single).max() < 1e-12

    labels_table = predictive_from_labels(ensemble, sim, criterion_task.test.X[:5])
    decoded = sim.query_labels(z, criterion_task.test.X[:5])
    expected = np.zeros((5, 2))
    expected[np.arange(5), decoded] = 1.0
    assert np.abs(labels_table.probs - expected).max() < 1e-12


def test_weight_invariance_under_sample_duplication(criterion_task):
    sim = criterion_task.simulator()
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(3, 8)) * 50
    base = PosteriorEnsemble(samples, np.array([0.5, 0.3, 0.2]), "ensembles")
    split = PosteriorEnsemble(np.vstack([samples, samples[:1]]),
                              np.array([0.25, 0.3, 0.2, 0.25]), "ensembles")
    x = criterion_task.test.X[:6]
    for build in (predictive_from_logits, predictive_from_labels):
        a = build(base, sim, x)
        b = build(split, sim, x)
        assert np.abs(a.probs - b.probs).max() < 1e-12


def test_table_validation():
    with pytest.raises(ValueError):
        PredictiveTable(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        PredictiveTable(np.array([[1.5, -0.5]]))
    for row in ([np.nan, np.nan, 0.0], [np.inf, 0.0, 0.0], [np.inf, -np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            PredictiveTable(np.array([[0.5, 0.5, 0.0], row]))


def test_csv_roundtrip_and_tiebreak(tmp_path):
    probs = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    table = PredictiveTable(probs)
    path = tmp_path / "pred.csv"
    save_predictive_csv(table, path)
    text = path.read_text().splitlines()
    assert text[0] == "p_0,p_1,p_2,predicted"
    assert text[1].endswith(",0")  # tie broken toward the lowest class
    loaded = load_predictive_csv(path)
    assert np.array_equal(loaded.probs, probs)


def test_logits_path_blocked_on_labels_only_simulator(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    ensemble = PosteriorEnsemble(np.zeros((1, 8)), np.array([1.0]), "abc_smc")
    with pytest.raises(AccessDeniedError):
        predictive_from_logits(ensemble, sim, criterion_task.test.X[:2])
    table = predictive_from_labels(ensemble, sim, criterion_task.test.X[:2])
    assert table.probs.shape == (2, 2)
