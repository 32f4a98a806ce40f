import base64
import contextlib
import dataclasses
import io
import json
import os
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CRITERION_TASK
from promptuq.blackbox import EvalBudget
from promptuq.cli import main
from promptuq.errors import (AccessDeniedError, BudgetExhaustedError,
                             NumericalBreakdownError, ProtocolError)
from promptuq.protocol import (ExternalSimulator, _LineTransport, pack, serve, serve_tcp,
                               unpack)


@pytest.fixture(scope="module")
def task_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("task") / "task.json"
    path.write_text(json.dumps(dataclasses.asdict(CRITERION_TASK)))
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
    assert sent[1]["zs"] == pack(zs, "<f8") and "seeds" not in sent[1]
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
    assert len(registers) == 1 and registers[0]["inputs"] == pack(x, "<f8")
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

    client = ExternalSimulator.connect(host, port)
    try:
        rng = np.random.default_rng(3)
        z = rng.normal(size=8) * 50
        x = rng.normal(size=(3, 16))
        assert np.abs(client.query_logits(z, x) - sim.query_logits(z, x)).max() < 1e-9
    finally:
        client.close()

    # a line that is not UTF-8 is a bad request, not the end of the connection
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        reader.readline()  # handshake
        raw.sendall(b"\xff\xfe\n" + REGISTER.encode() + b"\n"
                    + _query_line(1, "labels", np.zeros((1, 8))).encode())
        assert json.loads(reader.readline())["kind"] == "bad-request"
        assert json.loads(reader.readline()) == {"id": 0, "dataset": 0}
        assert "labels" in json.loads(reader.readline())


def test_serve_tcp_prints_the_address_it_bound(task_file):
    # port 0 lets the system choose; the printed line is how a client finds it
    proc = subprocess.Popen([sys.executable, "-m", "promptuq", "serve", "--task", task_file,
                             "--tcp", "127.0.0.1:0"], stdout=subprocess.PIPE)
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no address line"
        host, _, port = proc.stdout.readline().decode().rstrip("\n").rpartition(":")
        assert host == "127.0.0.1" and 0 < int(port) <= 65535
        client = ExternalSimulator.connect(host, int(port))
        try:
            assert client.modes == ("logits", "labels")
            assert (client.classes, client.feature_dim, client.prompt_dim,
                    client.subspace_dim) == (2, 16, 64, 8)
        finally:
            client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


class ScriptedTransport:
    def __init__(self, lines):
        self.lines = [line if isinstance(line, bytes) else line.encode() for line in lines]
        self.sent = []

    def readline(self):
        return self.lines.pop(0)

    def writeline(self, data):
        self.sent.append(json.loads(data))

    def close(self):
        pass


HANDSHAKE = json.dumps({"protocol": 3, "classes": 2, "feature_dim": 3,
                        "prompt_dim": 8, "subspace_dim": 2, "modes": ["logits", "labels"]})
REGISTERED = json.dumps({"id": 0, "dataset": 0})  # the answer to a client's first register
REGISTER = json.dumps({"id": 0, "op": "register", "inputs": pack(np.zeros((1, 16)), "<f8")})


def _read_lines(count: int, length: int) -> float:
    """Seconds the client's line reader takes for ``count`` lines of ``length``
    bytes each, written into a pipe by another thread."""
    read_fd, write_fd = os.pipe()
    line = b"x" * (length - 1) + b"\n"

    def write():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_fd, "wb") as out:
            for _ in range(count):
                out.write(line)

    transport = _LineTransport(read_fd)
    writer = threading.Thread(target=write)
    start = time.perf_counter()
    writer.start()
    try:
        for _ in range(count):
            assert len(transport.readline()) == length - 1
        return time.perf_counter() - start
    finally:
        os.close(read_fd)
        writer.join()


def test_the_client_reads_a_long_line_in_linear_time():
    # a reader that rescans or copies its whole buffer per read takes about
    # ten times as long for one 16 MiB line as for sixteen lines of 1 MiB
    one = min(_read_lines(1, 16 << 20) for _ in range(3))
    many = min(_read_lines(16, 1 << 20) for _ in range(3))
    assert one < 6 * many, (one, many)


def test_client_rejects_mismatched_response_id():
    transport = ScriptedTransport([
        HANDSHAKE, REGISTERED,
        json.dumps({"id": 99, "outputs": pack([[0.5, 0.5]], "<f8")}),
    ])
    client = ExternalSimulator(transport)
    with pytest.raises(ProtocolError, match="does not match"):
        client.query_logits(np.zeros(2), np.zeros((1, 3)))


def test_client_rejects_out_of_range_label():
    # (answer, pairs asked for, message): only packed <i8 labels in
    # [0, classes), one per pair, are a labels answer
    not_packed = "malformed labels for {} pairs: an array must be a base64 string"
    for labels, pairs, message in (
            (pack([2], "<i8"), 1, "labels outside"),
            (pack([-1, 0], "<i8"), 2, "labels outside"),
            (pack([2 ** 63 - 1], "<i8"), 1, "labels outside"),
            (pack([-2 ** 63], "<i8"), 1, "labels outside"),
            (pack([0, 1], "<i8"), 1, "malformed labels for 1 pairs: 2 rows"),  # a row too many
            (pack([0], "<i4"), 1, "4 bytes are not whole rows"),  # half a row
            ("AA=A", 1, "malformed labels for 1 pairs: .*padding"),  # not base64
            (0, 1, not_packed.format(1)),
            ([0], 1, not_packed.format(1)),  # a JSON list, as protocol v2 sent
            ([[0]], 1, not_packed.format(1)),
            ([[0], [1]], 2, not_packed.format(2)),
            ([0, [1]], 2, not_packed.format(2)),
            ([True], 1, not_packed.format(1)),
            ([1.0], 1, not_packed.format(1)),
            ([2 ** 64], 1, not_packed.format(1)),
            ([-2 ** 70, 0], 2, not_packed.format(2))):
        transport = ScriptedTransport([
            HANDSHAKE, REGISTERED,
            json.dumps({"id": 1, "labels": labels}),
        ])
        client = ExternalSimulator(transport)
        with pytest.raises(ProtocolError, match=message):
            client.query_labels(np.zeros(2), np.zeros((pairs, 3)))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.integers()
    | st.sampled_from([2 ** 63, 2 ** 64, 10 ** 400]) | st.floats(0, 1)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12)


_PROBABILITY_ROWS = st.lists(st.floats(0, 1).map(lambda p: [p, 1 - p])
                             | st.lists(st.floats(), min_size=2, max_size=2), max_size=4)
# any JSON, any text, base64 of any bytes, and packed arrays of any length
_ANSWERS = {key: _JSON_VALUES | st.text(max_size=12)
            | st.binary(max_size=40).map(lambda data: base64.b64encode(data).decode())
            | packed for key, packed in (
                ("labels", st.lists(st.integers(0, 1) | st.integers(-2 ** 63, 2 ** 63 - 1),
                                    max_size=4).map(lambda labels: pack(labels, "<i8"))),
                ("outputs", _PROBABILITY_ROWS.map(lambda rows: pack(rows, "<f8"))))}


def _valid_answer(key, value, pairs):
    """The array ``value`` holds if it is a valid answer for ``pairs`` pairs, else None."""
    if not isinstance(value, str):
        return None
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError:
        return None
    width, dtype = (1, "<i8") if key == "labels" else (2, "<f8")
    if len(data) != 8 * width * pairs:
        return None
    array = np.frombuffer(data, dtype).reshape(pairs, width)
    if key == "labels":
        return array[:, 0] if np.isin(array, (0, 1)).all() else None
    with np.errstate(over="ignore"):
        valid = (np.isfinite(array).all() and (array >= 0).all()
                 and (abs(array.sum(axis=1) - 1) <= 1e-6).all())
    return array if valid else None


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(["labels", "outputs"]), data=st.data(), pairs=st.integers(1, 3))
def test_any_json_answer_is_an_array_of_its_shape_or_a_protocol_error(key, data, pairs):
    value = data.draw(_ANSWERS[key])
    client = ExternalSimulator(ScriptedTransport([
        HANDSHAKE, REGISTERED, json.dumps({"id": 1, key: value})]))
    query = client.query_labels if key == "labels" else client.query_logits
    expected = _valid_answer(key, value, pairs)
    if expected is None:
        with pytest.raises(ProtocolError):
            query(np.zeros(2), np.zeros((pairs, 3)))
    else:
        answer = query(np.zeros(2), np.zeros((pairs, 3)))
        assert answer.shape == expected.shape and answer.dtype == expected.dtype
        assert answer.tobytes() == expected.tobytes()


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
    for line, message in (("not json", "unparseable"),
                          (b"\xff\xfe", "unparseable"),  # not UTF-8
                          ("[" * 100_000, "unparseable"),  # nested past the recursion limit
                          ('[{"id": 1, "labels": [0]}]', "expected a JSON object")):
        transport = ScriptedTransport([HANDSHAKE, REGISTERED, line])
        client = ExternalSimulator(transport)
        with pytest.raises(ProtocolError, match=message):
            client.query_labels(np.zeros(2), np.zeros((1, 3)))


def test_client_rejects_unknown_protocol_version():
    # a v1 server (one z and the whole input matrix per request) or a v2 one
    # (arrays as JSON numbers) is refused at connect, naming both versions;
    # the version is the JSON integer 3, not a float equal to it
    for version in (1, 2, 4, 3.0, "3"):
        transport = ScriptedTransport([json.dumps({**json.loads(HANDSHAKE),
                                                   "protocol": version})])
        with pytest.raises(ProtocolError, match=re.escape(
                f"speaks protocol {version!r}, this client protocol 3")):
            ExternalSimulator(transport)


def test_client_refuses_a_handshake_without_the_subspace_dimension():
    handshake = json.loads(HANDSHAKE)
    del handshake["subspace_dim"]
    with pytest.raises(ProtocolError, match="malformed handshake"):
        ExternalSimulator(ScriptedTransport([json.dumps(handshake)]))


@pytest.mark.parametrize("field,value", [
    ("classes", True), ("classes", -3), ("classes", 1), ("feature_dim", 4.9),
    ("prompt_dim", 0), ("subspace_dim", "2"), ("modes", "logits"), ("modes", []),
    ("modes", ["logits", "logits"]), ("modes", ["logits", "probs"]), ("modes", [["labels"]]),
    ("modes", ["logits"]),  # every server answers labels queries
])
def test_client_refuses_a_handshake_with_a_malformed_field(field, value):
    handshake = {**json.loads(HANDSHAKE), field: value}
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


def test_connect_closes_its_socket_after_failed_handshake(monkeypatch):
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener, listener.accept()[0] as conn:
            conn.sendall(b'{"protocol": 99}\n')
            conn.recv(1)  # until the client closes
    threading.Thread(target=run, daemon=True).start()
    sockets = []
    create_connection = socket.create_connection
    monkeypatch.setattr(socket, "create_connection",
                        lambda *args, **kwargs: sockets.append(
                            create_connection(*args, **kwargs)) or sockets[-1])
    with pytest.raises(ProtocolError, match="unsupported handshake"):
        ExternalSimulator.connect("127.0.0.1", listener.getsockname()[1])
    assert sockets[0].fileno() == -1


@pytest.mark.parametrize("read_handshake", [False, True], ids=["handshake", "answer"])
def test_a_client_that_hangs_up_ends_a_stdio_session_quietly(task_file, read_handshake):
    # closing the server's stdout first breaks the write of the handshake, or of
    # the answer to the request: the session ends as EOF ends it, with exit 0
    proc = subprocess.Popen([sys.executable, "-m", "promptuq", "serve", "--task", task_file],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    if read_handshake:
        proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(REGISTER.encode() + b"\n", timeout=60)
    assert proc.returncode == 0 and err == b""


def _resetting_server():
    """An endpoint that sends the handshake, lets the first request arrive unread
    and resets the connection."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener, listener.accept()[0] as conn:
            conn.sendall(HANDSHAKE.encode() + b"\n")
            conn.recv(1, socket.MSG_PEEK)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    threading.Thread(target=run, daemon=True).start()
    return {"host": "127.0.0.1", "port": listener.getsockname()[1]}


# the stdio simulator drops its stdin before the handshake, so the first write breaks the pipe
@pytest.mark.parametrize("endpoint", [
    lambda: {"argv": [sys.executable, "-c", "import os; os.dup2(os.open(os.devnull, "
                      f"os.O_RDONLY), 0); print({HANDSHAKE!r})"]},
    _resetting_server,
], ids=["stdio", "tcp"])
def test_a_lost_simulator_connection_exits_4(endpoint, tmp_path, capsys):
    train = tmp_path / "train.ndjson"
    train.write_text(json.dumps({"x": [0.0] * 3, "y": 0}) + "\n")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "task": {"endpoint": endpoint(), "prior": {"dim": 2, "sigma": 1.0},
                 "datasets": {"train": str(train)}},
        "method": "rejection_abc", "seed": 0, "evaluation": []}))
    assert main(["tune", "--config", str(config), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("tune: lost the simulator connection: ") and err.count("\n") == 1


def test_client_rejects_unnormalized_logit_rows():
    # only packed <f8 probability rows, one per pair, are an outputs answer;
    # JSON numbers, strings and bools are none
    not_packed = "malformed outputs for 1 pairs: an array must be a base64 string"
    for outputs, message in ((pack([[0.9, 0.9]], "<f8"), "probability"),
                             (pack([[1.5, -0.5]], "<f8"), "nonnegative"),  # sums to 1
                             (pack([[1e308, 1e308]], "<f8"), "not a probability vector"),
                             (pack([[np.nan, np.nan]], "<f8"), "finite"),
                             (pack([0.5, 0.5, 0.5], "<f8"), "24 bytes are not whole rows"),
                             (pack([[0.5, 0.5]] * 2, "<f8"), "malformed outputs for 1 pairs: 2"),
                             ([[0.5, 0.5]], not_packed),  # a JSON list, as protocol v2 sent
                             ([0.5, 0.5], not_packed),
                             ([["0.5", "0.5"]], not_packed),
                             ([[True, False]], not_packed)):
        transport = ScriptedTransport([HANDSHAKE, REGISTERED,
                                       json.dumps({"id": 1, "outputs": outputs})])
        client = ExternalSimulator(transport)
        with pytest.raises(ProtocolError, match=message):
            client.query_logits(np.zeros(2), np.zeros((1, 3)))


# every float64 bit pattern, and the ones a generator rarely draws: zeros of
# both signs, both infinities, the largest finite, a subnormal, quiet and
# signalling NaNs with payloads
_F8_BITS = st.integers(0, 2 ** 64 - 1) | st.sampled_from(
    np.array([0.0, -0.0, np.inf, -np.inf, 1.7976931348623157e308, 5e-324, -2.2e-310])
    .view(np.uint64).tolist() + [0x7FF8000000000000, 0xFFF8DEADBEEF0001, 0x7FF0000000000001])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 4), width=st.integers(1, 5), data=st.data())
def test_pack_unpack_round_trips_every_float64_bit_for_bit(rows, width, data):
    bits = data.draw(st.lists(_F8_BITS, min_size=rows * width, max_size=rows * width))
    array = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, width)
    text = pack(array, "<f8")
    assert pack(array.astype(">f8"), "<f8") == text  # the wire order, whatever the input's
    back = unpack(text, width, "<f8")
    assert back.shape == (rows, width) and back.dtype == np.float64
    assert back.tobytes() == array.tobytes()
    assert back.flags.writeable and back.flags.c_contiguous
    labels = array.view(np.int64)
    assert unpack(pack(labels, "<i8"), width, "<i8").tobytes() == labels.tobytes()


@pytest.mark.parametrize("text, width", [
    (None, 1), (8, 1), (b"AAAAAAAAAAA=", 1), (["AAAAAAAAAAA="], 1),  # not a string
    ("AAAA*AAAAAA=", 1), ("AAAA AAAAAA=", 1), ("AAAAAAAAAAA=\n", 1),  # outside the alphabet
    ("\u00c0AAAAAAAAAA=", 1),
    ("AAAAAAAAAAA", 1), ("AAAAAAAAAA=A", 1), ("=AAAAAAAAAAA", 1), ("A", 1),  # bad padding
    ("AAAA", 1), (pack(np.zeros(3), "<f8"), 2), (pack(np.zeros(4), "<f8"), 3),  # not whole rows
])
def test_unpack_refuses_what_is_not_base64_of_whole_rows(text, width):
    assert unpack("AAAAAAAAAAA=", 1, "<f8").shape == (1, 1)  # the valid form
    with pytest.raises(ValueError):
        unpack(text, width, "<f8")


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
    return json.dumps({"id": request_id, "mode": mode, "zs": pack(zs, "<f8"),
                       "dataset": dataset, **fields}) + "\n"


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
    assert responses[3]["kind"] == "bad-request"  # z has the wrong length: not whole rows
    assert responses[4]["labels"] == pack(sim.query_labels(
        np.array([[0.0] * 8, [1.0] * 8]), np.zeros((1, 16))), "<i8")

    # each malformed line gets one bad-request and the server keeps serving
    malformed = [
        {"mode": "labels", "zs": "not base64!"},
        {"mode": "labels", "zs": [[0.0] * 8]},  # JSON numbers, as protocol v2 sent
        {"mode": "logits", "zs": pack([[np.nan, 1] + [0.0] * 6], "<f8")},
        {"mode": "logits", "zs": pack([[np.inf] + [0.0] * 7], "<f8")},
        {"mode": "logits", "zs": pack([0.0] * 4, "<f8")},  # half a z: not whole rows
        {"mode": "logits", "zs": pack([0.0] * 15, "<f8")},
        {"mode": "logits", "zs": "AAAAAAA"},  # bad padding
        {"mode": "logits", "seeds": [0]},  # seeds are for labels queries only
        {"mode": "logits", "seeds": ["junk"]},
        {"mode": "labels", "dataset": 0},  # registered, but holds an infinite input
        {"mode": "labels", "dataset": 2},  # never registered
        {"mode": "labels", "dataset": -1},
        {"mode": "labels", "dataset": True},
        {"mode": "labels", "seeds": [-1]},
        {"mode": "labels", "seeds": [2 ** 64]},
        {"mode": "labels", "seeds": [True]},
        {"mode": "labels", "seeds": [0, 1]},  # two seeds for one z
        {"op": "register", "inputs": True},
        {"op": "register", "inputs": [[0.0] * 16]},
        {"op": "register", "inputs": pack([0.0] * 31, "<f8")},
        {"op": "register"},
        {"op": "drop", "inputs": pack([[0.0] * 16], "<f8")},
    ]
    overflowing = {"mode": "logits", "zs": pack([[1e308] * 8], "<f8")}  # the model overflows
    valid = {"mode": "logits", "zs": pack([[0.0] * 8], "<f8"), "dataset": 1}
    bad_ids = [True, -5, 2 ** 64, 1.0, "3", None]  # an id is an integer in [0, 2^64)
    registers = [json.dumps({"id": 0, "op": "register",
                             "inputs": pack([[np.inf] + [0.0] * 15], "<f8")}),
                 json.dumps({"id": 1, "op": "register", "inputs": pack([[0.0] * 16], "<f8")})]
    _, responses = _serve_lines(criterion_task.simulator(), ["[" * 100_000 + "\n"] + [
        line + "\n" for line in registers] + [
        json.dumps({**valid, "id": i, **fields}) + "\n"
        for i, fields in enumerate(malformed + [overflowing, {}], start=2)] + [
        json.dumps({**valid, "id": request_id}) + "\n" for request_id in bad_ids])
    assert [r.get("dataset") for r in responses[1:3]] == [0, 1]
    id_responses = responses[-len(bad_ids):]
    responses = responses[:1] + responses[3:-len(bad_ids)]
    assert [r.get("kind") for r in responses] == \
        ["bad-request"] * (len(malformed) + 1) + ["numerical-breakdown", None]
    assert [r["id"] for r in responses] == [None] + list(range(2, len(malformed) + 4))
    assert unpack(responses[-1]["outputs"], 2, "<f8").shape == (1, 2)
    assert id_responses == [{"id": None, "error": "missing u64 id", "kind": "bad-request"}
                            ] * len(bad_ids)


def test_server_answers_a_non_utf8_line_once_and_keeps_serving(criterion_task):
    valid = _query_line(1, "labels", [[0.0] * 8])
    out = io.BytesIO()
    serve(criterion_task.simulator(),
          io.BytesIO(b"\xff\n" + REGISTER.encode() + b"\n" + valid.encode()), out)
    _, bad, registered, good = [
        _strict_json(line) for line in out.getvalue().decode().split("\n")[:-1]]
    assert bad == {"id": None, "error": "unparseable request", "kind": "bad-request"}
    assert registered == {"id": 0, "dataset": 0}
    assert good["id"] == 1 and unpack(good["labels"], 1, "<i8").shape == (1, 1)


def test_registered_datasets_live_as_long_as_the_connection(criterion_task):
    # each connection starts with an empty registry
    lines = [REGISTER + "\n", _query_line(1, "labels", [[0.0] * 8])]
    for _ in range(2):
        _, responses = _serve_lines(criterion_task.simulator(), lines)
        assert responses[0] == {"id": 0, "dataset": 0}
        assert unpack(responses[1]["labels"], 1, "<i8").shape == (1, 1)
    _, responses = _serve_lines(criterion_task.simulator(), lines[1:])
    assert responses[0]["kind"] == "bad-request" and "dataset" in responses[0]["error"]


def test_server_answers_an_empty_stack_with_an_empty_array(criterion_task):
    # "" is a (0, d) stack of z, as in process a (0, d) query is answered by no rows
    _, responses = _serve_lines(criterion_task.simulator(), [
        REGISTER + "\n", _query_line(1, "logits", np.zeros((0, 8))),
        _query_line(2, "labels", np.zeros((0, 8))), _query_line(3, "labels", [], seeds=[]),
        json.dumps({"id": 4, "op": "register", "inputs": ""}) + "\n",
        _query_line(5, "logits", [[0.0] * 8], dataset=1)])
    assert responses == [
        {"id": 0, "dataset": 0}, {"id": 1, "outputs": ""}, {"id": 2, "labels": ""},
        {"id": 3, "labels": ""}, {"id": 4, "dataset": 1}, {"id": 5, "outputs": ""}]


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _packed(size):
    """Rows of ``size`` floats packed (a repeated number reaches overflow;
    floats include NaN and inf), then base64 of any bytes, then anything."""
    return (st.floats().map(lambda value: pack([value] * size, "<f8"))
            | st.lists(st.floats(), max_size=2 * size + 1).map(lambda values: pack(values, "<f8"))
            | st.binary(max_size=3 * size).map(lambda data: base64.b64encode(data).decode())
            | st.text(max_size=8) | _json)


_FIELDS = {
    "id": st.integers() | _json,
    "op": st.just("register") | _json,
    "mode": st.sampled_from(["logits", "labels"]) | _json,
    "zs": _packed(8),
    "dataset": st.integers(-1, 2) | _json,
    "inputs": _packed(16),
    "seeds": st.lists(st.integers() | st.sampled_from([-1, 2 ** 64 - 1, 2 ** 64]) | _json,
                      max_size=2) | _json,
}


@st.composite
def _request(draw):
    """A valid register or query request with up to three fields replaced,
    added or removed."""
    if draw(st.booleans()):
        request = {"id": 0, "op": "register", "inputs": pack([[0.0] * 16], "<f8")}
    elif draw(st.booleans()):
        request = {"id": 0, "mode": "labels", "zs": pack([[0.0] * 8], "<f8"), "dataset": 0,
                   "seeds": [0]}
    else:
        request = {"id": 0, "mode": "logits", "zs": pack([[0.0] * 8], "<f8"), "dataset": 0}
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
