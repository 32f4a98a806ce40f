"""One query contract, in process and served.

Every rule on a query (shapes, finite entries, one sample-decode seed per z,
charging) lives in ``blackbox``; the protocol client and server answer
through it. These tests hold the built-in simulator and a spawned
``promptuq serve`` to the same answers, the same refusals and the same
budget use.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, rule,
                                 run_state_machine_as_test)

from conftest import CRITERION_TASK
from promptuq.blackbox import EvalBudget, make_synthetic_task
from promptuq.errors import BudgetExhaustedError, NumericalBreakdownError
from promptuq.protocol import pack

D, F = CRITERION_TASK.subspace_dim, CRITERION_TASK.feature_dim


@pytest.fixture(scope="module", params=[2, 3, 5])
def classes_task(request):
    return make_synthetic_task(dataclasses.replace(CRITERION_TASK, classes=request.param))


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("n", [1, 32, 1030])
def test_seeded_stack_equals_seeded_single_queries_bit_for_bit(classes_task, k, n):
    task = classes_task
    sim = task.simulator()
    rng = np.random.default_rng(task.config.classes * 100 + k * 10 + n)
    zs = rng.normal(size=(k, D)) * task.prior.sigma
    x = rng.normal(size=(n, F))
    seeds = rng.integers(0, 2 ** 64, size=k, dtype=np.uint64)
    labels = sim.query_labels(zs, x, seeds)
    assert labels.shape == (k * n,) and sim.budget.used == k * n
    assert np.array_equal(labels, np.concatenate(
        [sim.query_labels(z, x, [int(seed)]) for z, seed in zip(zs, seeds)]))


def test_served_seeded_stack_equals_in_process_single_queries(served, criterion_task):
    local = criterion_task.simulator()
    rng = np.random.default_rng(12)
    zs = rng.normal(size=(4, D)) * 50
    x = rng.normal(size=(7, F))
    seeds = [0, 5, 12345678901, 2 ** 64 - 1]
    sent = served._next_id
    labels = served.query_labels(zs, x, seeds)
    assert served._next_id - sent == 2  # x is registered, then the whole stack is sent
    assert np.array_equal(labels, np.concatenate(
        [local.query_labels(z, x, [seed]) for z, seed in zip(zs, seeds)]))


BAD_SEEDS = {
    "too_few": (2, [5]),
    "too_many": (1, [5, 6]),
    "none_for_one_z": (1, []),
    "bool": (1, [True]),
    "numpy_bool": (1, [np.True_]),
    "negative": (1, [-1]),
    "past_u64": (2, [0, 2 ** 64]),
    "float": (1, [1.5]),
    "string": (1, ["5"]),
    "null": (1, [None]),
    "bare_int": (1, 5),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_decode_seeds_are_refused_before_charging(served, criterion_task, case):
    k, seeds = BAD_SEEDS[case]
    local = criterion_task.simulator()
    before, sent = served.budget.used, served._next_id
    for sim in (local, served):
        with pytest.raises(ValueError, match="seed"):
            sim.query_labels(np.zeros((k, D)), np.zeros((3, F)), seeds)
    assert local.budget.used == 0
    assert (served.budget.used, served._next_id) == (before, sent)


def test_non_finite_and_empty_queries_agree_in_process_and_served(served, criterion_task):
    local = criterion_task.simulator()
    before, sent = served.budget.used, served._next_id
    nan_z = np.zeros(D)
    nan_z[0] = np.nan
    inf_x = np.zeros((2, F))
    inf_x[1, 3] = np.inf
    for sim in (local, served):
        for z, x in ((nan_z, np.zeros((2, F))), (np.zeros(D), inf_x)):
            for query in (sim.query_logits, sim.query_labels):
                with pytest.raises(ValueError, match="finite"):
                    query(z, x)
        for z, x in ((np.zeros(D), np.zeros((0, F))), (np.zeros((0, D)), np.zeros((3, F)))):
            assert sim.query_logits(z, x).shape == (0, 2)
            assert sim.query_labels(z, x).shape == (0,)
            assert sim.query_labels(z, x, [0] * len(np.atleast_2d(z))).shape == (0,)
    assert local.budget.used == 0
    assert (served.budget.used, served._next_id) == (before, sent)


def test_a_query_that_overflows_the_model_is_a_numerical_breakdown(served, criterion_task):
    # finite but huge z: the pairs are charged, then both sides raise the same
    # error (exit 3), instead of NaN rows in process and a bad-request served
    local = criterion_task.simulator()
    before = served.budget.used
    for sim in (local, served):
        for query in (sim.query_logits, sim.query_labels):
            with pytest.raises(NumericalBreakdownError, match="overflowed"):
                query(np.full(D, 1e308), np.zeros((2, F)))
    assert local.budget.used == served.budget.used - before == 4


LIMIT = 60
BAD_LINES = [b"garbage", b"[", b"{}", b"\xff\xfe", b'{"id": 3}'] + [
    json.dumps(request).encode() for request in (
        {"id": 4, "mode": "logits", "zs": pack(np.full((1, D), np.nan), "<f8"), "dataset": 0},
        {"id": 5, "mode": "labels", "zs": pack(np.zeros(D - 1), "<f8"), "dataset": 0},
        {"id": 6, "mode": "labels", "zs": pack(np.zeros((1, D)), "<f8"), "dataset": -1},
        {"id": 7, "op": "register", "inputs": "not base64!"})]


class QueryContract(RuleBasedStateMachine):
    """The built-in simulator and a served client, each with a budget of
    ``LIMIT`` pairs, take the same queries and must agree on every one."""

    task = None
    served = None

    @initialize()
    def reset(self):
        self.local = self.task.simulator()
        self.local.budget = EvalBudget(limit=LIMIT)
        self.served.budget = EvalBudget(limit=LIMIT)
        self.expected_used = 0
        self.registered = set()  # input matrices a sent query carried

    def _both(self, mode, z, x, *seeds):
        """Each side's answer, or the type of what it raised, and the queries
        it sent; a query on an input matrix that an earlier one carried must
        not register it again."""
        outcomes, sent = [], self.served._next_id
        for sim in (self.local, self.served):
            query = sim.query_logits if mode == "logits" else sim.query_labels
            try:
                outcomes.append(query(z, x, *seeds))
            except (ValueError, BudgetExhaustedError, NumericalBreakdownError) as exc:
                outcomes.append(type(exc))
        sent = self.served._next_id - sent
        if sent:  # at most one register, and none for a matrix sent before
            assert sent == 1 or (sent == 2 and x.tobytes() not in self.registered)
            self.registered.add(x.tobytes())
        return outcomes, min(sent, 1)

    @rule(mode=st.sampled_from(["logits", "labels"]), k=st.integers(0, 3),
          n=st.integers(0, 5), data_seed=st.integers(0, 2 ** 32 - 1),
          seeds=st.none() | st.lists(st.sampled_from([0, 1, 2 ** 64 - 1, -1, 2 ** 64])
                                     | st.integers(0, 2 ** 64 - 1), max_size=4))
    def query(self, mode, k, n, data_seed, seeds):
        rng = np.random.default_rng(data_seed)
        z, x = rng.normal(size=(k, D)) * 50, rng.normal(size=(n, F))
        extra = () if mode == "logits" else (seeds,)
        (local, served), sent = self._both(mode, z, x, *extra)
        if mode == "labels" and seeds is not None and (
                len(seeds) != k or not all(0 <= s < 2 ** 64 for s in seeds)):
            assert local is served is ValueError and sent == 0
        elif self.expected_used + k * n > LIMIT:
            assert local is served is BudgetExhaustedError and sent == 0
        else:
            assert np.array_equal(local, served)
            assert sent == (1 if k and n else 0)
            self.expected_used += k * n

    @rule(mode=st.sampled_from(["logits", "labels"]),
          kind=st.sampled_from(["nan_z", "inf_input", "z_3d", "wrong_features",
                                "short_z", "long_z"]),
          k=st.integers(1, 3), n=st.integers(1, 3))
    def malformed(self, mode, kind, k, n):
        z, x = np.zeros((k, D)), np.zeros((n, F))
        if kind in ("short_z", "long_z"):  # refused by the client, nothing charged
            z = np.zeros((k, D - 1 if kind == "short_z" else D + 1))
        elif kind == "nan_z":
            z[-1, 0] = np.nan
        elif kind == "inf_input":
            x[0, -1] = -np.inf
        elif kind == "z_3d":
            z = z[None]
        else:
            x = np.zeros((n, F + 1))
        (local, served), sent = self._both(mode, z, x)
        assert local is served is ValueError and sent == 0

    @rule(mode=st.sampled_from(["logits", "labels"]), k=st.integers(1, 3),
          n=st.integers(1, 3), sign=st.sampled_from([1.0, -1.0]))
    def huge_z(self, mode, k, n, sign):
        # finite numbers that overflow the model: a numerical breakdown on both
        # sides, raised after the pairs are charged
        (local, served), sent = self._both(mode, np.full((k, D), sign * 1e308),
                                           np.zeros((n, F)))
        if self.expected_used + k * n > LIMIT:
            assert local is served is BudgetExhaustedError and sent == 0
        else:
            assert local is served is NumericalBreakdownError and sent == 1
            self.expected_used += k * n

    @rule(line=st.sampled_from(BAD_LINES))
    def bad_line(self, line):
        self.served._transport.writeline(line + b"\n")
        response = self.served._read_payload()
        assert response["kind"] == "bad-request"

    @invariant()
    def budgets_count_accepted_pairs(self):
        assert self.local.budget.used == self.served.budget.used == self.expected_used


def test_query_contract_holds_in_process_and_served(served, criterion_task):
    QueryContract.task, QueryContract.served = criterion_task, served
    run_state_machine_as_test(QueryContract, settings=settings(
        max_examples=25, stateful_step_count=15, deadline=None))
