"""The benchmark's correctness gate.

An *operation* is one experiment plus its checks. It fails when the
experiment raises, when its posterior or predictive tables are malformed,
when its metrics are out of range, or when they differ from what it must
reproduce: the committed reference values at the reference seed, or the same
experiment run in process (served experiments, protocol fidelity).
"""

from __future__ import annotations

import json
import math

import numpy as np

# Summary fields compared against references; simulator calls must match
# exactly, the quality metrics to within float round-off.
QUALITY = ("accuracy", "ece", "aurrrc_selective", "aurrrc_near_ood", "aurrrc_far_ood")
REL_TOL = 1e-9


def outcome(summary: dict) -> dict:
    """The values an experiment is judged by: budget use and entropy-score quality."""
    return {
        "sim_calls": int(summary["simulator_calls"]),
        "accuracy": float(summary["accuracy"]),
        "ece": float(summary["ece"]),
        "aurrrc_selective": float(summary["selective"]["aurrrc_entropy"]),
        "aurrrc_near_ood": float(summary["near_ood"]["aurrrc_entropy"]),
        "aurrrc_far_ood": float(summary["far_ood"]["aurrrc_entropy"]),
    }


def check_posterior(path, expected_size: int) -> list[str]:
    """The posterior artifact holds ``expected_size`` finite samples whose weights sum to 1."""
    weights, samples = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                weights.append(record["weight"])
                samples.append(record["z"])
    problems = []
    if len(weights) != expected_size:
        problems.append(f"posterior has {len(weights)} samples, expected {expected_size}")
    w = np.asarray(weights, dtype=float)
    if len(w) == 0 or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
        problems.append(f"posterior weights do not form a distribution (sum {w.sum()})")
    if not np.isfinite(np.asarray(samples, dtype=float)).all():
        problems.append("posterior samples are not finite")
    return problems


def check_tables(tables: list, expected_count: int, classes: int) -> list[str]:
    """Every predictive table has rows that are probability distributions."""
    problems = []
    if len(tables) != expected_count:
        problems.append(f"{len(tables)} predictive tables, expected {expected_count}")
    for table in tables:
        probs = np.asarray(table.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[1] != classes:
            problems.append(f"predictive table has shape {probs.shape}")
        elif (not np.isfinite(probs).all() or (probs < 0).any()
              or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9):
            problems.append("predictive rows are not probability distributions")
    return problems


def check_ranges(values: dict) -> list[str]:
    problems = []
    if values["sim_calls"] <= 0:
        problems.append("no simulator calls were charged")
    for key in QUALITY:
        if not (math.isfinite(values[key]) and 0.0 <= values[key] <= 1.0):
            problems.append(f"{key} = {values[key]!r} is outside [0, 1]")
    return problems


def compare(values: dict, expected: dict, what: str) -> list[str]:
    """Differences between ``values`` and ``expected`` (the other side named by ``what``)."""
    problems = []
    if values["sim_calls"] != expected["sim_calls"]:
        problems.append(f"sim_calls {values['sim_calls']} != {what} {expected['sim_calls']}")
    for key in QUALITY:
        if not math.isclose(values[key], expected[key], rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"{key} {values[key]!r} != {what} {expected[key]!r}")
    return problems
