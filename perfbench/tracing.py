"""Outside-in span tracing of promptuq's modules.

Each layer is measured from outside: ``Tracer.install`` replaces a module's
public functions (or a class's methods) at the names their callers look up
with wrappers that record a span, and ``uninstall`` puts the originals back.
No promptuq source changes.

A span has a name (``<layer>.<function>``), start, end, its parent span,
the id of the experiment it belongs to, and an optional count ``n`` taken
from the call (inputs queried, rows scored, bytes written). Spans stay in
memory and are written out by ``dump`` when the run ends. A layer's self
time is the summed duration of its spans minus the time their child spans
cover.

An *opaque* span traces nothing beneath it. Simulator queries are opaque
(``prompt_space.project`` and nested decodes count under blackbox), and so
is the task build, whose labelling queries are not charged to any budget.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

import promptuq.blackbox
import promptuq.cli
import promptuq.cmaes
import promptuq.estimators
import promptuq.experiment
import promptuq.predictive
import promptuq.protocol
import promptuq.uqeval


class Span:
    __slots__ = ("id", "name", "parent", "experiment", "opaque", "start", "end",
                 "child", "n")

    def __init__(self, span_id, name, parent, experiment, opaque):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.experiment = experiment
        self.opaque = opaque
        self.child = 0.0
        self.n = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _rows(args, kwargs, result):
    return len(result)


def _bytes_written(args, kwargs, result):
    return len(args[1])


def _predictive_pairs(args, kwargs, result):
    return args[0].size * len(result.probs)


def _abc_attempts(args, kwargs, result):
    """(attempts, accepted) read from the returned posterior's diagnostics."""
    diag = result.diagnostics
    if "draws" in diag:
        return int(diag["draws"]), result.size
    return int(diag["total_attempts"]), result.size * int(diag["iterations"])


_bb = promptuq.blackbox.SyntheticSimulator
_ext = promptuq.protocol.ExternalSimulator
_est = promptuq.estimators
_exp = promptuq.experiment
# the package re-exports the function abc_smc under the module's name
_smc = importlib.import_module("promptuq.abc_smc")
_uq = promptuq.uqeval

# (owner, attribute callers look up, span name, count, opaque)
CLIENT_POINTS = (
    (_bb, "query_logits", "blackbox.query_logits", _rows, True),
    (_bb, "query_labels", "blackbox.query_labels", _rows, True),
    (_bb, "sampled_labels", "blackbox.sampled_labels", _rows, True),
    (_ext, "query_logits", "protocol.query", _rows, False),
    (_ext, "query_labels", "protocol.query", _rows, False),
    (_ext, "spawn", "protocol.spawn", None, False),
    (_ext, "connect", "protocol.connect", None, False),
    (promptuq.protocol.PipeTransport, "writeline", "protocol.stdio.write",
     _bytes_written, False),
    (promptuq.protocol.SocketTransport, "writeline", "protocol.tcp.write",
     _bytes_written, False),
    (promptuq.cmaes, "minimize", "cmaes.minimize", None, False),
    (promptuq.cmaes, "ask", "cmaes.ask", None, False),
    (promptuq.cmaes, "tell", "cmaes.tell", None, False),
    (_est, "point_estimate", "estimators.point_estimate", None, False),
    (_est, "ensemble_tune", "estimators.ensemble_tune", None, False),
    (_est, "gfvi_tune", "estimators.gfvi_tune", None, False),
    (_est, "negative_log_likelihood", "estimators.negative_log_likelihood", None, False),
    (_est, "elbo_estimate", "estimators.elbo_estimate", None, False),
    (_exp, "rejection_abc", "abc_smc.rejection_abc", _abc_attempts, False),
    (_exp, "abc_smc", "abc_smc.abc_smc", _abc_attempts, False),
    (_smc, "initial_tolerance", "abc_smc.initial_tolerance", None, False),
    (_smc, "update_weights", "abc_smc.update_weights", None, False),
    (_smc, "distance_error_rate", "abc_smc.distance_error_rate", None, False),
    (promptuq.predictive, "predictive_from_logits", "predictive.from_logits",
     _predictive_pairs, False),
    (promptuq.predictive, "predictive_from_labels", "predictive.from_labels",
     _predictive_pairs, False),
    (_uq, "selective_classification_eval", "uqeval.selective", None, False),
    (_uq, "ood_detection_eval", "uqeval.ood", None, False),
    (_uq, "score_rows", "uqeval.score_rows", _rows, False),
    (_exp, "make_synthetic_task", "experiment.task_build", None, True),
)

# What a ``promptuq serve`` process traces: its queries and its task build.
SERVER_POINTS = CLIENT_POINTS[:3] + (
    (promptuq.cli, "make_synthetic_task", "experiment.task_build", None, True),
)


class Tracer:
    """Collects spans from the wrappers it installs; single-threaded use."""

    def __init__(self):
        self.spans: list[Span] = []
        self.experiment = None
        self._stack: list[Span] = []
        self._next_id = 0
        self._saved = []
        self.origin = time.perf_counter()

    def _open(self, name, opaque) -> Span:
        stack = self._stack
        span = Span(self._next_id, name, stack[-1] if stack else None,
                    self.experiment, opaque)
        self._next_id += 1
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, opaque: bool = False):
        """A span opened by the benchmark itself around a block."""
        span = self._open(name, opaque)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, original, name, count, opaque):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1].opaque:
                return original(*args, **kwargs)
            span = self._open(name, opaque)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.n = count(args, kwargs, result)
            return result

        return traced

    def install(self, points=CLIENT_POINTS) -> None:
        for owner, attr, name, count, opaque in points:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            # getattr binds classmethods to the class; plain functions stay unbound
            setattr(owner, attr, self._wrapper(getattr(owner, attr), name, count, opaque))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def records(spans, origin: float = 0.0, experiment=None, process: str = "client"):
    """Spans as plain dicts, times in seconds since ``origin``."""
    for s in spans:
        yield {"id": s.id, "name": s.name, "process": process,
               "parent": None if s.parent is None else s.parent.id,
               "experiment": s.experiment if experiment is None else experiment,
               "start": s.start - origin, "end": s.end - origin, "n": s.n}


def dump(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def load(path, id_offset: int) -> list[Span]:
    """Spans written by ``dump`` in another process, ids shifted by ``id_offset``.

    Loaded spans carry no parent links; their child time, and with it their
    self time, is rebuilt from the records.
    """
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    spans = {}
    for r in records:
        span = Span(r["id"] + id_offset, r["name"], None, r["experiment"], False)
        span.start, span.end, span.n = r["start"], r["end"], r["n"]
        spans[r["id"]] = span
    for r in records:
        if r["parent"] is not None:
            spans[r["parent"]].child += r["end"] - r["start"]
    return list(spans.values())


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0




def layer_metrics(spans: list[Span], artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics over the spans of one traced iteration."""
    by_layer: dict[str, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.name.split(".", 1)[0], []).append(s)
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def self_s(layer):
        return sum(s.self_time for s in by_layer.get(layer, ()))

    def us(group):
        return [1e6 * s.duration for s in group]

    m: dict[str, float] = {}
    queries = named("blackbox.query_logits", "blackbox.query_labels",
                    "blackbox.sampled_labels")
    pairs = sum(s.n for s in queries)
    m["blackbox.queries"] = len(queries)
    m["blackbox.pairs"] = pairs
    m["blackbox.inputs_per_query"] = _ratio(pairs, len(queries))
    m["blackbox.self_s"] = self_s("blackbox")
    m["blackbox.ns_per_pair"] = 1e9 * _ratio(m["blackbox.self_s"], pairs)
    m["blackbox.query_p50_us"] = _percentile(us(queries), 50)
    m["blackbox.query_p99_us"] = _percentile(us(queries), 99)

    roundtrips = named("protocol.query")
    for kind in ("stdio", "tcp"):
        writes = [s for s in named(f"protocol.{kind}.write")
                  if s.parent is not None and s.parent.name == "protocol.query"]
        trips = [s.parent for s in writes]
        m[f"protocol.{kind}.roundtrips"] = len(trips)
        m[f"protocol.{kind}.rtt_p50_us"] = _percentile(us(trips), 50)
        m[f"protocol.{kind}.rtt_p99_us"] = _percentile(us(trips), 99)
        m[f"protocol.{kind}.request_bytes"] = sum(s.n for s in writes)
    m["protocol.pairs"] = sum(s.n for s in roundtrips)
    m["protocol.handshake_s"] = sum(
        s.duration for s in named("protocol.spawn", "protocol.connect"))
    m["protocol.self_s"] = self_s("protocol")

    generations = named("cmaes.tell")
    m["cmaes.generations"] = len(generations)
    m["cmaes.self_s"] = self_s("cmaes")
    m["cmaes.ask_tell_us_per_generation"] = _ratio(
        sum(us(named("cmaes.ask", "cmaes.tell"))), len(generations))

    m["estimators.nll_calls"] = len(named("estimators.negative_log_likelihood"))
    m["estimators.elbo_calls"] = len(named("estimators.elbo_estimate"))
    m["estimators.self_s"] = self_s("estimators")

    runs = named("abc_smc.rejection_abc", "abc_smc.abc_smc")
    attempts = sum(s.n[0] for s in runs)
    weights = named("abc_smc.update_weights")
    distances = named("abc_smc.distance_error_rate")
    m["abc_smc.attempts"] = attempts
    m["abc_smc.acceptance_ratio"] = _ratio(sum(s.n[1] for s in runs), attempts)
    m["abc_smc.update_weights_calls"] = len(weights)
    m["abc_smc.update_weights_ms_p50"] = _percentile(us(weights), 50) / 1e3
    m["abc_smc.distance_calls"] = len(distances)
    m["abc_smc.distance_self_s"] = sum(s.self_time for s in distances)
    m["abc_smc.self_s"] = self_s("abc_smc")

    tables = named("predictive.from_logits", "predictive.from_labels")
    m["predictive.calls"] = len(tables)
    m["predictive.pairs"] = sum(s.n for s in tables)
    m["predictive.self_s"] = self_s("predictive")

    m["uqeval.rows_scored"] = sum(s.n for s in named("uqeval.score_rows"))
    m["uqeval.self_s"] = self_s("uqeval")
    m["uqeval.rows_per_s"] = _ratio(m["uqeval.rows_scored"], m["uqeval.self_s"])

    m["experiment.self_s"] = self_s("experiment")
    m["experiment.artifact_bytes"] = artifact_bytes
    return m
