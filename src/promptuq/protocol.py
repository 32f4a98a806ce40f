"""External simulator protocol v2: newline-delimited JSON over stdio or TCP.

The server speaks first with a handshake line

    {"protocol": 2, "classes": C, "feature_dim": F, "prompt_dim": D,
     "subspace_dim": d, "modes": ["logits", "labels"]}

then answers one request per line:

    register {"id": u64, "op": "register", "inputs": [[f64...]...]}
          -> {"id": u64, "dataset": i}
    query    {"id": u64, "mode": "logits"|"labels", "zs": [[f64...]...],
              "dataset": i, "seeds": [u64...]}
          -> {"id": u64, "outputs": [[f64...]...]}  (logits mode, rows sum to 1)
             {"id": u64, "labels": [u32...]}        (labels mode)
    failure  {"id": u64, "error": str, "kind": str}

Every message is one line of UTF-8 JSON ending in a newline byte. A register
request stores an input matrix under a dataset index that lives as long as
the connection. A query names one dataset and carries a whole (K, d) stack of
z; its answer holds all K * n rows in z-major order. ``seeds`` (labels mode
only) holds one sample-decode seed per z; without it labels are argmax
decoded. Sample decoding is driven entirely by the seeds, so a served
simulator reproduces in-process results bit for bit.

Both ends keep no query rules of their own. The client checks a query with
``blackbox.check_query`` (the handshake gives it the subspace dimension) and
``check_decode_seeds`` before it charges or sends anything, sends nothing for
an empty query, and registers each distinct input matrix once per
connection. The server only decodes the JSON (id, op, mode, dataset index,
lists of numbers) and answers through the simulator's own query, whose
ValueError becomes a bad-request.
"""

from __future__ import annotations

import json
import os
import select
import socket
import socketserver
import subprocess
import sys

import numpy as np

from .blackbox import EvalBudget, check_decode_seeds, check_query
from .errors import (AccessDeniedError, BudgetExhaustedError, NumericalBreakdownError,
                     ProtocolError)
from .uqeval import check_probability_table

PROTOCOL_VERSION = 2
TIMEOUT = 30.0  # seconds a client waits to connect or for a server line
# The failures a server reports by kind, and the client raises again; any
# other failure, a ValueError from the simulator included, is a bad request.
ERROR_KINDS = {"access-denied": AccessDeniedError, "budget": BudgetExhaustedError,
               "numerical-breakdown": NumericalBreakdownError}


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


class _LineTransport:
    """Line framing over a readable file descriptor; a subclass writes lines."""

    def __init__(self, fd: int):
        self._fd = fd
        self._buffer = bytearray()

    def readline(self) -> bytes:
        while b"\n" not in self._buffer:
            if not select.select([self._fd], [], [], TIMEOUT)[0]:
                raise ProtocolError(f"timed out after {TIMEOUT}s waiting for server")
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise ProtocolError("server closed the connection")
            self._buffer.extend(chunk)
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return line


class PipeTransport(_LineTransport):
    """Line framing over a child process's stdin/stdout."""

    def __init__(self, proc: subprocess.Popen):
        super().__init__(proc.stdout.fileno())
        self._proc = proc

    def writeline(self, data: bytes) -> None:
        self._proc.stdin.write(data)
        self._proc.stdin.flush()

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        self._proc.wait(timeout=5)
        self._proc.stdout.close()


class SocketTransport(_LineTransport):
    """Line framing over a TCP socket; the timeout bounds sends."""

    def __init__(self, sock: socket.socket):
        super().__init__(sock.fileno())
        sock.settimeout(TIMEOUT)
        self._sock = sock

    def writeline(self, data: bytes) -> None:
        self._sock.sendall(data)

    def close(self) -> None:
        self._sock.close()


class ExternalSimulator:
    """Client handle with the same query surface as the built-in simulator.

    A query is checked, charged and sent as one request carrying its whole
    (K, d) stack of z; its input matrix is registered with the server the
    first time this connection sees it, so a repeated matrix costs only its z.
    """

    def __init__(self, transport):
        self._transport = transport
        self._next_id = 0
        self._datasets: dict[tuple, int] = {}  # (shape, bytes) -> server index
        self.budget = EvalBudget()
        handshake = self._read_payload()
        if handshake.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported handshake: the server speaks protocol "
                f"{handshake.get('protocol')!r}, this client protocol {PROTOCOL_VERSION}: "
                f"{handshake}")
        try:
            self.classes = int(handshake["classes"])
            self.feature_dim = int(handshake["feature_dim"])
            self.prompt_dim = int(handshake["prompt_dim"])
            self.subspace_dim = int(handshake["subspace_dim"])
            self.modes = tuple(handshake["modes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed handshake: {handshake}") from exc

    @classmethod
    def spawn(cls, argv: list[str]) -> "ExternalSimulator":
        try:
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProtocolError(f"cannot start simulator {argv[0]!r}: {exc}") from exc
        try:
            return cls(PipeTransport(proc))
        except BaseException:
            with proc:  # closes the pipes and reaps the child
                proc.kill()
            raise

    @classmethod
    def connect(cls, host: str, port: int) -> "ExternalSimulator":
        try:
            sock = socket.create_connection((host, port), timeout=TIMEOUT)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to simulator at {host}:{port}: {exc}") from exc
        return cls(SocketTransport(sock))

    def close(self) -> None:
        self._transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _read_payload(self) -> dict:
        line = self._transport.readline()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"unparseable server line: {line[:200]!r}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object, got: {line[:200]!r}")
        return payload

    def _roundtrip(self, request: dict) -> dict:
        request_id = self._next_id
        self._next_id += 1
        request["id"] = request_id
        self._transport.writeline(_encode(request))
        response = self._read_payload()
        if "error" in response:  # a simulator's own failure keeps its message
            kind = response.get("kind")
            if isinstance(kind, str) and kind in ERROR_KINDS:
                raise ERROR_KINDS[kind](response["error"])
            raise ProtocolError(f"server error: {response['error']}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')} does not match request {request_id}")
        return response

    def _dataset(self, inputs: np.ndarray) -> int:
        """The server's index of ``inputs``, registering them on first use."""
        key = (inputs.shape, inputs.tobytes())
        if key not in self._datasets:
            response = self._roundtrip({"op": "register", "inputs": inputs.tolist()})
            index = response.get("dataset")
            if type(index) is not int:
                raise ProtocolError(f"malformed dataset index {index!r} for a register")
            self._datasets[key] = index
        return self._datasets[key]

    def _query(self, request: dict, zs: np.ndarray, inputs: np.ndarray, parse, empty):
        """Charge a checked query, then send it as one request and
        ``parse(response, rows)`` its answer; an empty query sends nothing
        and returns ``empty``."""
        rows = len(zs) * len(inputs)
        self.budget.charge(rows)
        if rows == 0:
            return empty
        request.update(zs=zs.tolist(), dataset=self._dataset(inputs))
        return parse(self._roundtrip(request), rows)

    def _probabilities(self, response: dict, rows: int) -> np.ndarray:
        try:
            probs = check_probability_table(response.get("outputs"))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"logits-mode outputs are not probability rows: {exc}") from exc
        if probs.shape != (rows, self.classes):
            raise ProtocolError(f"malformed outputs for {rows} pairs")
        return probs

    def _labels(self, response: dict, rows: int) -> np.ndarray:
        labels = response.get("labels")
        if not isinstance(labels, list) or len(labels) != rows:
            raise ProtocolError(f"malformed labels for {rows} pairs")
        values = np.asarray(labels)
        if (not np.issubdtype(values.dtype, np.integer)
                or (values < 0).any() or (values >= self.classes).any()):
            raise ProtocolError(f"labels outside [0, {self.classes})")
        return values.astype(np.int64)

    def query_logits(self, z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probability vector per (z, input) pair, z-major, (K * n, classes)."""
        if "logits" not in self.modes:
            raise AccessDeniedError("server is labels-only; probabilities are hidden")
        zs, inputs = check_query(z, inputs, self.feature_dim, self.subspace_dim)
        return self._query({"mode": "logits"}, zs, inputs, self._probabilities,
                           np.empty((0, self.classes)))

    def query_labels(self, z: np.ndarray, inputs: np.ndarray, seeds=None) -> np.ndarray:
        """Label per (z, input) pair, z-major, (K * n,); one seed per z sample-decodes."""
        zs, inputs = check_query(z, inputs, self.feature_dim, self.subspace_dim)
        request = {"mode": "labels"}
        if seeds is not None:
            request["seeds"] = check_decode_seeds(seeds, len(zs))
        return self._query(request, zs, inputs, self._labels, np.empty(0, dtype=np.int64))


def _number_rows(rows) -> np.ndarray:
    """``rows`` as a float array; ValueError unless it is a list of lists of
    JSON numbers (no bools) within the float range. Shapes and finiteness are
    the simulator's to check."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and all(type(v) in (int, float) for row in rows for v in row)):
        raise ValueError("zs and inputs must be lists of lists of JSON numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("zs and inputs must hold numbers within the float range") from None


def _handle_request(sim, datasets: list, request: dict) -> dict:
    """Decode one request's JSON and answer it: a register appends its inputs
    to this connection's ``datasets``; a query is answered by the simulator's
    own query, which holds every rule on shapes, finiteness and seeds. A
    ValueError is a bad request."""
    request_id = request.get("id")
    if not isinstance(request_id, int):
        return {"id": None, "error": "missing integer id", "kind": "bad-request"}
    mode, index = request.get("mode"), request.get("dataset")
    try:
        if "op" in request:
            if request["op"] != "register":
                raise ValueError(f"unknown op {request['op']!r}")
            datasets.append(_number_rows(request.get("inputs")))
            return {"id": request_id, "dataset": len(datasets) - 1}
        if mode not in ("logits", "labels"):
            raise ValueError(f"unknown mode {mode!r}")
        if type(index) is not int or not 0 <= index < len(datasets):
            raise ValueError(f"unknown dataset {index!r}")
        zs, inputs = _number_rows(request.get("zs")), datasets[index]
        if mode == "logits":
            return {"id": request_id, "outputs": sim.query_logits(zs, inputs).tolist()}
        return {"id": request_id,
                "labels": sim.query_labels(zs, inputs, request.get("seeds")).tolist()}
    except (ValueError, *ERROR_KINDS.values()) as exc:
        kind = next((kind for kind, error in ERROR_KINDS.items() if isinstance(exc, error)),
                    "bad-request")
        return {"id": request_id, "error": str(exc), "kind": kind}


def serve(sim, rfile, wfile) -> None:
    """Serve one connection worth of requests from binary streams until EOF.

    The datasets registered on the connection live until it ends. Lines end
    at a newline byte and blank lines are skipped; a line that is not a UTF-8
    JSON object gets one bad-request response.
    """
    handshake = {
        "protocol": PROTOCOL_VERSION,
        "classes": sim.classes,
        "feature_dim": sim.feature_dim,
        "prompt_dim": sim.prompt_dim,
        "subspace_dim": sim.subspace_dim,
        "modes": ["logits", "labels"] if sim.allow_logits else ["labels"],
    }
    wfile.write(_encode(handshake))
    wfile.flush()
    datasets: list[np.ndarray] = []
    for line in rfile:
        if not line.strip():
            continue
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("not an object")
        except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError too
            response = {"id": None, "error": "unparseable request", "kind": "bad-request"}
        else:
            response = _handle_request(sim, datasets, request)
        try:
            data = (json.dumps(response, allow_nan=False) + "\n").encode("utf-8")
        except ValueError:  # a non-finite answer (the built-in simulator raises first)
            data = _encode({"id": response["id"], "error": "non-finite result",
                            "kind": "bad-request"})
        wfile.write(data)
        wfile.flush()


def serve_stdio(sim) -> None:
    serve(sim, sys.stdin.buffer, sys.stdout.buffer)


def serve_tcp(sim, host: str, port: int, ready_callback=None) -> None:
    """Blocking TCP server; each connection gets its own handler thread."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            serve(sim, self.rfile, self.wfile)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        if ready_callback is not None:
            ready_callback(server.server_address)
        server.serve_forever()
