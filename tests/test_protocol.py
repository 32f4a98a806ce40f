import io
import json
import os
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CRITERION_TASK
from promptuq.blackbox import EvalBudget, task_config_to_dict
from promptuq.errors import (AccessDeniedError, BudgetExhaustedError,
                             NumericalBreakdownError, ProtocolError)
from promptuq.protocol import ExternalSimulator, serve, serve_tcp


@pytest.fixture(scope="module")
def task_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("task") / "task.json"
    path.write_text(json.dumps(task_config_to_dict(CRITERION_TASK)))
    return str(path)


@pytest.fixture
def sent(served, monkeypatch):
    """The requests the served client writes during one test, decoded."""
    requests = []
    write = served._transport.writeline

    def record(data):
        requests.append(json.loads(data))
        write(data)
    monkeypatch.setattr(served._transport, "writeline", record)
    return requests


def test_handshake_fields(served, criterion_task):
    assert served.classes == criterion_task.config.classes
    assert served.feature_dim == criterion_task.config.feature_dim
    assert served.prompt_dim == criterion_task.config.prompt_dim
    assert served.subspace_dim == criterion_task.config.subspace_dim
    assert set(served.modes) == {"logits", "labels"}


def test_round_trip_logits_identical(served, criterion_task):
    local = criterion_task.simulator()
    rng = np.random.default_rng(0)
    for _ in range(30):
        z = rng.normal(size=8) * 50
        x = rng.normal(size=(rng.integers(1, 6), 16))
        remote = served.query_logits(z, x)
        assert np.abs(remote - local.query_logits(z, x)).max() < 1e-9


def test_round_trip_labels_identical(served, criterion_task):
    local = criterion_task.simulator()
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = rng.normal(size=8) * 50
        x = rng.normal(size=(4, 16))
        assert np.array_equal(served.query_labels(z, x), local.query_labels(z, x))


def test_round_trip_sample_decode_identical(served, criterion_task):
    # sampling is driven by a request seed, so equal seeds produce identical
    # labels in and out of process, up to the largest u64
    local = criterion_task.simulator()
    z = np.zeros(8)
    x = np.random.default_rng(2).normal(size=(8, 16))
    for seed in (0, 77, 2 ** 64 - 1):
        assert np.array_equal(served.query_labels(z, x, [seed]),
                              local.query_labels(z, x, [seed]))


def test_client_budget_counts_pairs(served):
    before = served.budget.used
    served.query_logits(np.zeros(8), np.zeros((5, 16)))
    assert served.budget.used == before + 5


def test_stacked_query_is_one_request(served, criterion_task, sent):
    local = criterion_task.simulator()
    rng = np.random.default_rng(3)
    zs = rng.normal(size=(5, 8)) * 50
    x = rng.normal(size=(3, 16))
    before = served.budget.used
    probs = served.query_logits(zs, x)
    assert [request.get("op", "query") for request in sent] == ["register", "query"]
    assert sent[1]["zs"] == zs.tolist() and "seeds" not in sent[1]
    assert served.budget.used == before + 15
    assert probs.shape == (15, 2)
    assert np.abs(probs - local.query_logits(zs, x)).max() < 1e-9
    assert np.array_equal(served.query_labels(zs, x), local.query_labels(zs, x))


def test_a_query_over_the_budget_sends_nothing(served, sent, monkeypatch):
    # the charge comes first, so a refused query does not register its inputs
    monkeypatch.setattr(served, "budget", EvalBudget(limit=3))
    with pytest.raises(BudgetExhaustedError):
        served.query_labels(np.zeros(8), np.full((4, 16), 0.25))
    assert sent == [] and served.budget.used == 0


def test_a_repeated_input_matrix_is_registered_once(served, criterion_task, sent):
    local = criterion_task.simulator()
    rng = np.random.default_rng(4)
    z, x = rng.normal(size=8) * 50, rng.normal(size=(6, 16))
    for query in (served.query_logits, served.query_labels, served.query_logits):
        query(z, x)
    assert np.array_equal(served.query_labels(z, x.copy(), [9]),
                          local.query_labels(z, x, [9]))
    registers = [request for request in sent if request.get("op") == "register"]
    queries = [request for request in sent if "op" not in request]
    assert len(registers) == 1 and registers[0]["inputs"] == x.tolist()
    assert len(queries) == 4 and len({request["dataset"] for request in queries}) == 1
    assert all(request.keys() <= {"id", "mode", "zs", "dataset", "seeds"}
               for request in queries)
    served.query_labels(z, x[:5])  # another matrix is another dataset
    assert sent[-2]["op"] == "register" and sent[-1]["dataset"] != queries[0]["dataset"]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_client_refuses_out_of_range_decode_seed_before_sending(seed):
    transport = ScriptedTransport([HANDSHAKE])
    client = ExternalSimulator(transport)
    with pytest.raises(ValueError, match="seed"):
        client.query_labels(np.zeros(2), np.zeros((4, 3)), [seed])
    with pytest.raises(ValueError, match="seed"):  # one seed per z
        client.query_labels(np.zeros((2, 2)), np.zeros((4, 3)), [5])
    assert client.budget.used == 0
    assert transport.sent == []


@pytest.mark.parametrize("z", [np.zeros(3), np.zeros((2, 1))])
def test_client_refuses_a_z_of_the_wrong_length_before_charging(z):
    # the handshake's subspace dimension lets the client check z itself
    transport = ScriptedTransport([HANDSHAKE])
    client = ExternalSimulator(transport)
    for query in (client.query_logits, client.query_labels):
        with pytest.raises(ValueError, match="expected 2"):
            query(z, np.zeros((4, 3)))
    assert client.budget.used == 0
    assert transport.sent == []


def test_labels_only_server_hides_probabilities(task_file):
    client = ExternalSimulator.spawn(
        [sys.executable, "-m", "promptuq", "serve", "--task", task_file,
         "--labels-only"])
    try:
        assert client.modes == ("labels",)
        with pytest.raises(AccessDeniedError):
            client.query_logits(np.zeros(8), np.zeros((1, 16)))
        assert len(client.query_labels(np.zeros(8), np.zeros((2, 16)))) == 2
    finally:
        client.close()


def test_tcp_transport_round_trip(criterion_task):
    sim = criterion_task.simulator()
    address = {}
    ready = threading.Event()

    def announce(addr):
        address["value"] = addr
        ready.set()

    thread = threading.Thread(
        target=serve_tcp,
        args=(criterion_task.simulator(), "127.0.0.1", 0),
        kwargs={"ready_callback": announce}, daemon=True)
    thread.start()
    assert ready.wait(timeout=10)
    host, port = address["value"]

    with ExternalSimulator.connect(host, port) as client:
        rng = np.random.default_rng(3)
        z = rng.normal(size=8) * 50
        x = rng.normal(size=(3, 16))
        assert np.abs(client.query_logits(z, x) - sim.query_logits(z, x)).max() < 1e-9

    # a line that is not UTF-8 is a bad request, not the end of the connection
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        reader.readline()  # handshake
        raw.sendall(b"\xff\xfe\n" + REGISTER.encode() + b"\n" + json.dumps(
            {"id": 1, "mode": "labels", "zs": [[0.0] * 8], "dataset": 0}).encode() + b"\n")
        assert json.loads(reader.readline())["kind"] == "bad-request"
        assert json.loads(reader.readline()) == {"id": 0, "dataset": 0}
        assert "labels" in json.loads(reader.readline())


class ScriptedTransport:
    def __init__(self, lines):
        self.lines = [line.encode() for line in lines]
        self.sent = []

    def readline(self):
        return self.lines.pop(0)

    def writeline(self, data):
        self.sent.append(json.loads(data))

    def close(self):
        pass


HANDSHAKE = json.dumps({"protocol": 2, "classes": 2, "feature_dim": 3,
                        "prompt_dim": 8, "subspace_dim": 2, "modes": ["logits", "labels"]})
REGISTERED = json.dumps({"id": 0, "dataset": 0})  # the answer to a client's first register
REGISTER = json.dumps({"id": 0, "op": "register", "inputs": [[0.0] * 16]})


def test_client_rejects_mismatched_response_id():
    transport = ScriptedTransport([
        HANDSHAKE, REGISTERED,
        json.dumps({"id": 99, "outputs": [[0.5, 0.5]]}),
    ])
    client = ExternalSimulator(transport)
    with pytest.raises(ProtocolError, match="does not match"):
        client.query_logits(np.zeros(2), np.zeros((1, 3)))


def test_client_rejects_out_of_range_label():
    transport = ScriptedTransport([
        HANDSHAKE, REGISTERED,
        json.dumps({"id": 1, "labels": [2]}),
    ])
    client = ExternalSimulator(transport)
    with pytest.raises(ProtocolError, match="labels outside"):
        client.query_labels(np.zeros(2), np.zeros((1, 3)))


@pytest.mark.parametrize("kind, error, message", [
    ("numerical-breakdown", NumericalBreakdownError, "the model overflowed"),
    ("budget", BudgetExhaustedError, "the model overflowed"),
    ("access-denied", AccessDeniedError, "the model overflowed"),
    ("bad-request", ProtocolError, "server error: the model overflowed"),
    ("no-such-kind", ProtocolError, "server error: the model overflowed"),
    (["not", "a", "kind"], ProtocolError, "server error: the model overflowed"),
])
def test_a_server_error_keeps_the_simulators_message(kind, error, message):
    # the simulator's own failures read as they do in process; only a request
    # the server could not take is a protocol error
    transport = ScriptedTransport([
        HANDSHAKE, REGISTERED,
        json.dumps({"id": 1, "error": "the model overflowed", "kind": kind}),
    ])
    with pytest.raises(RuntimeError) as info:
        ExternalSimulator(transport).query_labels(np.zeros(2), np.zeros((1, 3)))
    assert type(info.value) is error and str(info.value) == message


def test_client_rejects_unparseable_line():
    transport = ScriptedTransport([HANDSHAKE, REGISTERED, "not json"])
    client = ExternalSimulator(transport)
    with pytest.raises(ProtocolError, match="unparseable"):
        client.query_labels(np.zeros(2), np.zeros((1, 3)))


def test_client_rejects_unknown_protocol_version():
    # a v1 server (one z and the whole input matrix per request) is refused
    # at connect, naming both versions
    for version in (1, 3):
        transport = ScriptedTransport([json.dumps({**json.loads(HANDSHAKE),
                                                   "protocol": version})])
        with pytest.raises(ProtocolError,
                           match=f"speaks protocol {version}, this client protocol 2"):
            ExternalSimulator(transport)


def test_client_refuses_a_handshake_without_the_subspace_dimension():
    handshake = json.loads(HANDSHAKE)
    del handshake["subspace_dim"]
    with pytest.raises(ProtocolError, match="malformed handshake"):
        ExternalSimulator(ScriptedTransport([json.dumps(handshake)]))


def test_client_rejects_a_malformed_dataset_index():
    transport = ScriptedTransport([HANDSHAKE, json.dumps({"id": 0, "dataset": "0"})])
    with pytest.raises(ProtocolError, match="dataset index"):
        ExternalSimulator(transport).query_labels(np.zeros(2), np.zeros((1, 3)))


def test_spawn_reaps_child_after_failed_handshake(tmp_path):
    pid_file = tmp_path / "pid"
    script = (f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
              "print('{\"protocol\": 99}', flush=True); time.sleep(60)")
    with pytest.raises(ProtocolError, match="unsupported handshake"):
        ExternalSimulator.spawn([sys.executable, "-c", script])
    with pytest.raises(ProcessLookupError):  # killed and waited for, not a zombie
        os.kill(int(pid_file.read_text()), 0)


def test_client_rejects_unnormalized_logit_rows():
    for outputs, message in (([[0.9, 0.9]], "probability"),
                             ([[1.5, -0.5]], "nonnegative"),  # sums to 1, no distribution
                             ([0.5, 0.5], "2-D")):            # a flat row, not a list of rows
        transport = ScriptedTransport([HANDSHAKE, REGISTERED,
                                       json.dumps({"id": 1, "outputs": outputs})])
        client = ExternalSimulator(transport)
        with pytest.raises(ProtocolError, match=message):
            client.query_logits(np.zeros(2), np.zeros((1, 3)))


def _strict_json(line):
    def refuse(token):
        raise ValueError(f"{token} is not valid JSON")
    return json.loads(line, parse_constant=refuse)


def _serve_lines(sim, request_lines):
    out = io.BytesIO()
    serve(sim, io.BytesIO("".join(request_lines).encode()), out)
    lines = out.getvalue().decode().split("\n")[:-1]
    return _strict_json(lines[0]), [_strict_json(line) for line in lines[1:]]


def _query_line(request_id, mode, zs, dataset=0, **fields):
    return json.dumps({"id": request_id, "mode": mode, "zs": zs, "dataset": dataset,
                       **fields}) + "\n"


def test_server_error_responses(criterion_task):
    sim = criterion_task.simulator(allow_logits=False)
    handshake, responses = _serve_lines(sim, [
        "garbage\n",
        REGISTER + "\n",
        _query_line(1, "logits", [[0.0] * 8]),
        _query_line(2, "labels", [[0.0] * 3]),
        _query_line(3, "labels", [[0.0] * 8, [1.0] * 8]),
    ])
    assert handshake["modes"] == ["labels"]
    assert handshake["subspace_dim"] == 8
    assert responses[0]["kind"] == "bad-request"
    assert responses[1] == {"id": 0, "dataset": 0}
    assert responses[2]["kind"] == "access-denied"
    assert responses[3]["kind"] == "bad-request"  # z has the wrong length
    assert responses[4]["labels"] == [int(v) for v in sim.query_labels(
        np.array([[0.0] * 8, [1.0] * 8]), np.zeros((1, 16)))]

    # each malformed line gets one bad-request and the server keeps serving
    malformed = [
        {"mode": "labels", "zs": [["a", 1] + [0.0] * 6]},
        {"mode": "logits", "zs": [[float("nan"), 1] + [0.0] * 6]},
        {"mode": "logits", "zs": [[10 ** 400] + [0.0] * 7]},
        {"mode": "logits", "zs": [0.0] * 8},  # one z, not a list of rows
        {"mode": "logits", "zs": [[0.0] * 8, [0.0] * 7]},  # ragged
        {"mode": "labels", "dataset": 0},  # registered, but holds an infinite input
        {"mode": "labels", "dataset": 2},  # never registered
        {"mode": "labels", "dataset": -1},
        {"mode": "labels", "dataset": True},
        {"mode": "labels", "seeds": [-1]},
        {"mode": "labels", "seeds": [2 ** 64]},
        {"mode": "labels", "seeds": [True]},
        {"mode": "labels", "seeds": [0, 1]},  # two seeds for one z
        {"op": "register", "inputs": [[True] + [0.0] * 15]},
        {"op": "register", "inputs": [["a"] * 16]},
        {"op": "register", "inputs": [[0.0] * 16, [0.0] * 15]},
        {"op": "register"},
        {"op": "drop", "inputs": [[0.0] * 16]},
    ]
    overflowing = {"mode": "logits", "zs": [[1e308] * 8]}  # finite, but the model overflows
    valid = {"mode": "logits", "zs": [[0.0] * 8], "dataset": 1}
    registers = [json.dumps({"id": 0, "op": "register",
                             "inputs": [[float("inf")] + [0.0] * 15]}),
                 json.dumps({"id": 1, "op": "register", "inputs": [[0.0] * 16]})]
    _, responses = _serve_lines(criterion_task.simulator(), ["[" * 100_000 + "\n"] + [
        line + "\n" for line in registers] + [
        json.dumps({**valid, "id": i, **fields}) + "\n"
        for i, fields in enumerate(malformed + [overflowing, {}], start=2)])
    assert [r.get("dataset") for r in responses[1:3]] == [0, 1]
    responses = responses[:1] + responses[3:]
    assert [r.get("kind") for r in responses] == \
        ["bad-request"] * (len(malformed) + 1) + ["numerical-breakdown", None]
    assert [r["id"] for r in responses] == [None] + list(range(2, len(malformed) + 4))
    assert len(responses[-1]["outputs"]) == 1


def test_server_answers_a_non_utf8_line_once_and_keeps_serving(criterion_task):
    valid = _query_line(1, "labels", [[0.0] * 8])
    out = io.BytesIO()
    serve(criterion_task.simulator(),
          io.BytesIO(b"\xff\n" + REGISTER.encode() + b"\n" + valid.encode()), out)
    _, bad, registered, good = [
        _strict_json(line) for line in out.getvalue().decode().split("\n")[:-1]]
    assert bad == {"id": None, "error": "unparseable request", "kind": "bad-request"}
    assert registered == {"id": 0, "dataset": 0}
    assert good["id"] == 1 and len(good["labels"]) == 1


def test_registered_datasets_live_as_long_as_the_connection(criterion_task):
    # each connection starts with an empty registry
    lines = [REGISTER + "\n", _query_line(1, "labels", [[0.0] * 8])]
    for _ in range(2):
        _, responses = _serve_lines(criterion_task.simulator(), lines)
        assert responses[0] == {"id": 0, "dataset": 0} and len(responses[1]["labels"]) == 1
    _, responses = _serve_lines(criterion_task.simulator(), lines[1:])
    assert responses[0]["kind"] == "bad-request" and "dataset" in responses[0]["error"]


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_number = st.integers(-2 ** 70, 2 ** 70) | st.floats()  # floats include NaN and inf


def _vector(size):  # the right length (a repeated number reaches overflow), then anything
    return (_number.map(lambda value: [value] * size)
            | st.lists(_number, min_size=size, max_size=size)
            | st.lists(_number | _json, min_size=size, max_size=size) | _json)


_FIELDS = {
    "id": st.integers() | _json,
    "op": st.just("register") | _json,
    "mode": st.sampled_from(["logits", "labels"]) | _json,
    "zs": st.lists(_vector(8), min_size=1, max_size=2) | _json,
    "dataset": st.integers(-1, 2) | _json,
    "inputs": st.lists(_vector(16), min_size=1, max_size=2) | _json,
    "seeds": st.lists(st.integers() | st.sampled_from([-1, 2 ** 64 - 1, 2 ** 64]) | _json,
                      max_size=2) | _json,
}


@st.composite
def _request(draw):
    """A valid register or query request with up to three fields replaced,
    added or removed."""
    if draw(st.booleans()):
        request = {"id": 0, "op": "register", "inputs": [[0.0] * 16]}
    else:
        request = {"id": 0, "mode": draw(st.sampled_from(["logits", "labels"])),
                   "zs": [[0.0] * 8], "dataset": 0, "seeds": [0]}
    for key in draw(st.sets(st.sampled_from(sorted(_FIELDS)), max_size=3)):
        if draw(st.booleans()):
            request[key] = draw(_FIELDS[key])
        else:
            request.pop(key, None)
    return request


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary() | st.text().map(str.encode)
                | _request().map(lambda request: json.dumps(request).encode()), max_size=6))
def test_server_answers_every_line_with_valid_json(criterion_task, lines):
    data = b"".join(line + b"\n" for line in lines)
    out = io.BytesIO()
    serve(criterion_task.simulator(), io.BytesIO(data), out)  # returns at EOF
    requests = [line for line in io.BytesIO(data) if line.strip()]
    responses = [_strict_json(line) for line in out.getvalue().decode().split("\n")[1:-1]]
    assert len(responses) == len(requests)
    for response in responses:
        assert isinstance(response, dict)
        assert len(response.keys() & {"outputs", "labels", "dataset", "error"}) == 1
