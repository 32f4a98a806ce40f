import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptuq.uqeval import (SCORES, ece, ood_detection_eval, oracle_lower_bound,
                             risk_rejection_curve, save_curve_csv, score_rows,
                             selective_classification_eval)


def test_entropy_values():
    assert score_rows(np.array([1.0, 0.0])[None], "entropy")[0] == 0.0
    assert score_rows(np.array([0.5, 0.5])[None], "entropy")[0] == pytest.approx(
        np.log(2), abs=1e-12)
    expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert score_rows(np.array([0.75, 0.25])[None], "entropy")[0] == pytest.approx(
        expected, abs=1e-12)
    assert expected == pytest.approx(0.56234, abs=5e-6)


def test_maxp_values():
    assert score_rows(np.array([0.0, 1.0])[None], "maxp")[0] == 0.0
    assert score_rows(np.full(4, 0.25)[None], "maxp")[0] == pytest.approx(0.75, abs=1e-12)
    assert score_rows(np.array([0.75, 0.25])[None], "maxp")[0] == pytest.approx(
        0.25, abs=1e-12)


def test_scores_reject_unnormalized_input():
    for score in SCORES:
        with pytest.raises(ValueError):
            score_rows(np.array([0.6, 0.6])[None], score)


def dirichlet_rows_with_zeros(classes, rows, seed):
    """Dirichlet rows with about a third of the entries zeroed, renormalized."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(classes, 0.5), size=rows)
    p[rng.random(p.shape) < 0.3] = 0.0
    p[p.sum(axis=1) == 0.0, rng.integers(classes)] = 1.0
    return p / p.sum(axis=1, keepdims=True)


def per_row_entropy(row):
    nz = row[row > 0]
    return -(nz * np.log(nz)).sum()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_score_rows_matches_per_row_reference(classes, rows, seed):
    p = dirichlet_rows_with_zeros(classes, rows, seed)
    entropy = score_rows(p, "entropy")
    maxp = score_rows(p, "maxp")
    reference = np.array([per_row_entropy(row) for row in p])
    if classes <= 7:  # bit for bit
        assert entropy.tobytes() == reference.tobytes()
    else:  # numpy's pairwise sum groups 8 or more terms differently
        assert np.abs(entropy - reference).max() <= 8 * np.finfo(float).eps
    assert maxp.tobytes() == np.array([1 - row.max() for row in p]).tobytes()
    assert [score_rows(row[None], "entropy")[0] for row in p] == entropy.tolist()
    assert [score_rows(row[None], "maxp")[0] for row in p] == maxp.tolist()


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.data())
def test_score_rows_invariant_under_row_slicing(classes, seed, data):
    p = dirichlet_rows_with_zeros(classes, 30, seed)
    i = data.draw(st.integers(0, 29))
    j = data.draw(st.integers(i + 1, 30))
    for score in SCORES:
        assert score_rows(p, score)[i:j].tobytes() == score_rows(p[i:j], score).tobytes()


@pytest.mark.parametrize("table", [
    np.array([0.5, 0.5]),                       # 1-D
    np.zeros((0, 2)),                           # no rows
    np.array([[1.2, -0.2], [0.5, 0.5]]),        # negative entry
    np.array([[0.5, 0.5], [0.6, 0.6]]),         # row sum 1.2
    np.array([[1e308, 1e308]]),                 # row sum past the float range
    np.array([[0.5, 0.5], [np.nan, np.nan]]),   # NaN
    np.array([[np.inf, 0.0], [0.5, 0.5]]),      # inf
    np.array([[np.inf, -np.inf], [0.5, 0.5]]),
])
def test_score_rows_rejects_non_distributions(table):
    for score in SCORES:
        with pytest.raises(ValueError):
            score_rows(table, score)


def test_score_rows_rejects_unknown_score():
    with pytest.raises(ValueError, match="unknown score"):
        score_rows(np.full((2, 2), 0.5), "variance")


@settings(max_examples=100)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_entropy_range(classes, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(classes))
    value = score_rows(p[None], "entropy")[0]
    assert -1e-12 <= value <= np.log(classes) + 1e-12


def test_ece_perfectly_confident_and_correct():
    probs = np.eye(3)[np.array([0, 1, 2, 1])]
    labels = np.array([0, 1, 2, 1])
    assert ece(probs, labels) == 0.0


def test_ece_single_bin_hand_value():
    probs = np.array([[0.6, 0.4], [0.6, 0.4]])
    labels = np.array([0, 1])  # one correct prediction at confidence 0.6
    assert ece(probs, labels) == pytest.approx(0.1, abs=1e-12)


def test_ece_matches_definition_oracle():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=500)
    labels = rng.integers(4, size=500)
    bins = 10

    confidence = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    expected = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        members = ((confidence >= lo) & (confidence < hi)
                   if b < bins - 1 else (confidence >= lo) & (confidence <= 1.0))
        if members.sum() == 0:
            continue
        acc = np.mean(predicted[members] == labels[members])
        conf = confidence[members].mean()
        expected += (members.sum() / 500) * abs(acc - conf)

    assert ece(probs, labels) == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= ece(probs, labels) <= 1.0


def test_ece_top_bin_contains_confidence_one():
    probs = np.array([[1.0, 0.0]])
    assert ece(probs, np.array([0])) == 0.0


def test_curve_all_good():
    curve = risk_rejection_curve(np.arange(5.0), np.zeros(5, dtype=bool))
    assert np.array_equal(curve.risks, np.zeros(5))
    assert curve.aurrrc == 0.0


def test_curve_hand_oracle_four_items():
    # bad items carry the highest uncertainty: enumerate every rejection count
    flags = np.array([True, True, False, False])
    uncertainties = np.array([4.0, 3.0, 2.0, 1.0])
    curve = risk_rejection_curve(uncertainties, flags)
    assert np.allclose(curve.risks, [0.5, 1 / 3, 0.0, 0.0])
    assert curve.aurrrc == pytest.approx((0.5 + 1 / 3) / 4, abs=1e-12)
    assert curve.aurrrc == pytest.approx(0.20833, abs=5e-6)


@pytest.mark.parametrize("n", [5, 50, 500])
def test_curve_oracle_ood_risk_pattern(n):
    # n ID items scored 0, n OOD items scored 100: at rejection rate 20%
    # (k = 0.4 n) the residual risk is 0.6n / 1.6n = 0.375
    flags = np.concatenate([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    scores = np.where(flags, 100.0, 0.0)
    curve = risk_rejection_curve(scores, flags)
    k = int(0.4 * n)
    assert curve.risks[k] == pytest.approx(0.375, abs=1e-12)


def test_curve_tie_break_by_original_index():
    # equal uncertainties: rejection order follows the original index
    flags = np.array([False, True, False, True])
    curve = risk_rejection_curve(np.zeros(4), flags)
    # k=1 rejects index 0 (good), leaving 2 bad of 3
    assert curve.risks[1] == pytest.approx(2 / 3)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_curve_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=12)
    flags = rng.random(12) < 0.4
    base = risk_rejection_curve(u, flags)
    warped = risk_rejection_curve(np.exp(3.0 * u) + 5.0, flags)
    assert np.array_equal(base.risks, warped.risks)


def test_oracle_lower_bound_values():
    assert oracle_lower_bound(np.zeros(6, dtype=bool)) == 0.0
    flags = np.concatenate([np.zeros(5, dtype=bool), np.ones(5, dtype=bool)])
    bound = oracle_lower_bound(flags)
    oracle_curve = risk_rejection_curve(np.where(flags, 100.0, 0.0), flags)
    assert bound == oracle_curve.aurrrc
    assert oracle_curve.risks[2] == pytest.approx(0.375, abs=1e-12)


def test_oracle_lower_bound_dominates_all_scores():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(2, 30))
        flags = rng.random(m) < rng.uniform(0.1, 0.9)
        bound = oracle_lower_bound(flags)
        assert bound <= risk_rejection_curve(rng.normal(size=m), flags).aurrrc + 1e-12


def test_selective_eval_perfect_predictions():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    labels = np.array([0, 1, 0])
    metrics, curves = selective_classification_eval(probs, labels)
    assert metrics["accuracy"] == 1.0
    assert metrics["aurrrc_entropy"] == 0.0
    assert metrics["lower_bound"] == 0.0


def test_selective_eval_entropy_maxp_agree_for_binary():
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(2), size=40)
    labels = rng.integers(2, size=40)
    metrics, curves = selective_classification_eval(probs, labels)
    assert np.array_equal(curves["entropy"].risks, curves["maxp"].risks)


def test_selective_eval_dominates_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        probs = rng.dirichlet(np.ones(3), size=25)
        labels = rng.integers(3, size=25)
        metrics, curves = selective_classification_eval(probs, labels)
        assert metrics["lower_bound"] <= metrics["aurrrc_entropy"] + 1e-12


def test_ood_eval_perfectly_separated_scores():
    id_probs = np.eye(2)[np.zeros(6, dtype=int)]      # one-hot rows, entropy 0
    ood_probs = np.full((6, 2), 0.5)                  # uniform rows, entropy ln 2
    metrics, curves = ood_detection_eval(id_probs, ood_probs)
    assert metrics["aurrrc_entropy"] == pytest.approx(metrics["lower_bound"], abs=1e-12)


def test_ood_eval_invariant_to_id_permutation():
    rng = np.random.default_rng(4)
    id_probs = rng.dirichlet(np.full(2, 5.0), size=15)
    ood_probs = rng.dirichlet(np.ones(2), size=15)
    base = ood_detection_eval(id_probs, ood_probs)[0]["aurrrc_entropy"]
    for _ in range(20):
        perm = rng.permutation(15)
        scrambled = ood_detection_eval(id_probs[perm], ood_probs)[0]["aurrrc_entropy"]
        assert scrambled == pytest.approx(base, abs=1e-12)


def test_ood_eval_class_count_mismatch():
    with pytest.raises(ValueError):
        ood_detection_eval(np.full((2, 2), 0.5), np.full((2, 3), 1 / 3))


def test_curve_csv_export(tmp_path):
    curve = risk_rejection_curve(np.array([3.0, 2.0, 1.0]),
                                 np.array([True, False, False]))
    path = tmp_path / "curve.csv"
    save_curve_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,rejection_rate,risk"
    assert len(lines) == 4
    k, rate, risk = lines[1].split(",")
    assert (k, float(rate), float(risk)) == ("0", 0.0, pytest.approx(1 / 3))
    # the bytes the csv module's default dialect writes: floats as repr, CRLF
    assert path.read_bytes() == (b"k,rejection_rate,risk\r\n0,0.0,0.3333333333333333\r\n"
                                 b"1,0.3333333333333333,0.0\r\n2,0.6666666666666666,0.0\r\n")


def test_ece_zero_when_bin_confidence_equals_accuracy():
    # every row sits in the 0.75 bin and exactly 75% of them are correct
    probs = np.tile([0.75, 0.25], (4, 1))
    labels = np.array([0, 0, 0, 1])
    assert ece(probs, labels) == pytest.approx(0.0, abs=1e-12)
