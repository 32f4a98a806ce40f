"""Uncertainty scores, calibration error, and risk-rejection analysis.

Both downstream tasks share one computation: rank items by an uncertainty
score, reject the top k, and measure the residual risk (misclassification
rate for selective classification, OOD fraction for detection). The area
under that curve, averaged over every rejection count, is the headline
number; the oracle lower bound scores flagged items as maximally uncertain
and is the best any score could do on the same flags.

One call evaluates a table under every score in ``SCORES`` and returns
``(metrics, curves)``: the lower bound and each ``aurrrc_<score>`` (plus
accuracy and ECE for selective classification), and each score's curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCORES = ("entropy", "maxp")
ECE_BINS = 10  # equal-width max-probability bins of ``ece``


def check_probability_table(probs) -> np.ndarray:
    """The table as floats; ValueError unless every row is a finite distribution
    (nonnegative entries summing to 1 within 1e-6)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.size == 0:
        raise ValueError("expected a nonempty 2-D probability table")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        sums = p.sum(axis=1)
    row = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[row] - 1.0) > 1e-6:
        raise ValueError(f"row {row} is not a probability vector (sum {sums[row]})")
    return p


def score_rows(probs: np.ndarray, score: str) -> np.ndarray:
    """Per-row uncertainty of an (M, C) table under the chosen score.

    ``entropy`` is the Shannon entropy in nats with 0 log 0 = 0; ``maxp`` is
    1 - max class probability, so higher always means more uncertain.
    """
    if score not in SCORES:
        raise ValueError(f"unknown score {score!r}")
    p = check_probability_table(probs)
    if score == "maxp":
        return 1.0 - p.max(axis=1)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)  # a zero adds 0 log 1


def ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Expected calibration error over ``ECE_BINS`` equal-width max-probability bins.

    Confidence exactly 1.0 falls in the top bin; empty bins contribute zero.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.asarray(labels)
    if len(probs) != len(labels):
        raise ValueError("need one label per probability row")
    confidence = probs.max(axis=1)
    correct = (np.argmax(probs, axis=1) == labels)
    bins = np.minimum((confidence * ECE_BINS).astype(int), ECE_BINS - 1)
    total = len(labels)
    value = 0.0
    for b in range(ECE_BINS):
        members = bins == b
        count = int(members.sum())
        if count == 0:
            continue
        value += (count / total) * abs(correct[members].mean()
                                       - confidence[members].mean())
    return float(value)


@dataclass(frozen=True)
class RiskRejectionCurve:
    """risks[k] is the residual risk after rejecting the k most-uncertain items."""

    risks: np.ndarray
    aurrrc: float


def risk_rejection_curve(uncertainties: np.ndarray,
                         flags: np.ndarray) -> RiskRejectionCurve:
    """Sort descending by uncertainty (ties by original index) and sweep k.

    ``flags`` marks the bad items: misclassified, or OOD. The curve value at
    k is the bad fraction among the kept items; the area is the mean over
    k = 0 .. M-1 (risk at k = M would be 0/0).
    """
    uncertainties = np.asarray(uncertainties, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    m = len(flags)
    if m == 0 or len(uncertainties) != m:
        raise ValueError("need equally many nonempty uncertainties and flags")
    order = np.lexsort((np.arange(m), -uncertainties))
    kept_bad = np.cumsum(flags[order][::-1])[::-1]  # bad count among items k..M-1
    kept_total = m - np.arange(m)
    risks = kept_bad / kept_total
    return RiskRejectionCurve(risks, float(risks.mean()))


def oracle_lower_bound(flags: np.ndarray) -> float:
    """Minimum achievable area: flagged items scored 100, the rest 0."""
    flags = np.asarray(flags, dtype=bool)
    if len(flags) == 0:
        raise ValueError("flags must be nonempty")
    return risk_rejection_curve(np.where(flags, 100.0, 0.0), flags).aurrrc


def _score_curves(probs: np.ndarray, flags: np.ndarray) -> tuple[dict, dict]:
    """The oracle lower bound and each score's AURRRC, and each score's curve."""
    curves = {score: risk_rejection_curve(score_rows(probs, score), flags)
              for score in SCORES}
    metrics = {f"aurrrc_{score}": curve.aurrrc for score, curve in curves.items()}
    metrics["lower_bound"] = oracle_lower_bound(flags)
    return metrics, curves


def selective_classification_eval(probs: np.ndarray, labels: np.ndarray) -> tuple[dict, dict]:
    """Flags are misclassifications of the argmax prediction; the metrics add
    accuracy and ECE to the lower bound and AURRRCs."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.asarray(labels)
    if len(probs) != len(labels):
        raise ValueError("need one label per probability row")
    flags = np.argmax(probs, axis=1) != labels
    metrics, curves = _score_curves(probs, flags)
    metrics.update(accuracy=float(1.0 - flags.mean()), ece=ece(probs, labels))
    return metrics, curves


def ood_detection_eval(id_probs: np.ndarray, ood_probs: np.ndarray) -> tuple[dict, dict]:
    """Flags are OOD membership; rows are concatenated ID first for tie-breaks."""
    id_probs = np.atleast_2d(np.asarray(id_probs, dtype=float))
    ood_probs = np.atleast_2d(np.asarray(ood_probs, dtype=float))
    if id_probs.shape[1] != ood_probs.shape[1]:
        raise ValueError("ID and OOD tables must have the same class count")
    flags = np.concatenate([np.zeros(len(id_probs), dtype=bool),
                            np.ones(len(ood_probs), dtype=bool)])
    return _score_curves(np.vstack([id_probs, ood_probs]), flags)
