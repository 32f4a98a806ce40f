"""External simulator protocol: newline-delimited JSON over stdio or TCP.

The server speaks first with a handshake line

    {"protocol": 1, "classes": C, "feature_dim": F, "prompt_dim": D,
     "modes": ["logits", "labels"]}

then answers one request per line:

    request  {"id": u64, "mode": "logits"|"labels", "z": [f64...],
              "inputs": [[f64...]...], "decode": "argmax"|"sample", "seed": u64}
    response {"id": u64, "outputs": [[f64...]...]}   (logits mode, rows sum to 1)
             {"id": u64, "labels": [u32...]}         (labels mode)
             {"id": u64, "error": str, "kind": str}  (failure)

Every message is one line of UTF-8 JSON ending in a newline byte.
``decode`` and ``seed`` only matter in labels mode; sample decoding is driven
entirely by the request seed so a served simulator reproduces in-process
results bit for bit.

Both ends keep no query rules of their own. The client checks a query with
``blackbox.check_query`` and ``check_decode_seeds`` before it charges or sends
anything, and sends nothing for an empty one. The server only decodes the
JSON (id, mode, decode name, lists of numbers) and answers through the
simulator's own query, whose ValueError becomes a bad-request.
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

PROTOCOL_VERSION = 1
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

    The v1 wire carries one z per request, so a (K, d) query sends K requests
    in row order, each with its own sample-decode seed, and concatenates their
    answers. The handshake does not carry the subspace dimension, so a z of
    the wrong length is charged and then refused by the server.
    """

    def __init__(self, transport):
        self._transport = transport
        self._next_id = 0
        self.budget = EvalBudget()
        handshake = self._read_payload()
        if handshake.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported handshake: {handshake}")
        try:
            self.classes = int(handshake["classes"])
            self.feature_dim = int(handshake["feature_dim"])
            self.prompt_dim = int(handshake["prompt_dim"])
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
        if "error" in response:
            error = ERROR_KINDS.get(response.get("kind"), ProtocolError)
            raise error(f"server error: {response['error']}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')} does not match request {request_id}")
        return response

    def _query(self, mode: str, zs: np.ndarray, inputs: np.ndarray, parse,
               fields: list[dict]) -> list[np.ndarray]:
        """Charge a checked query, then send one v1 request per row of ``zs``
        with that row's ``fields`` and ``parse(response, n)`` each answer as it
        arrives, in row order. An empty query sends nothing."""
        self.budget.charge(len(zs) * len(inputs))
        if len(inputs) == 0:
            return []
        rows = inputs.tolist()
        return [parse(self._roundtrip({"mode": mode, "z": z, "inputs": rows, **extra}),
                      len(rows))
                for z, extra in zip(zs.tolist(), fields)]

    def _probabilities(self, response: dict, n: int) -> np.ndarray:
        try:
            probs = check_probability_table(response.get("outputs"))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"logits-mode outputs are not probability rows: {exc}") from exc
        if probs.shape != (n, self.classes):
            raise ProtocolError(f"malformed outputs for {n} inputs")
        return probs

    def _labels(self, response: dict, n: int) -> np.ndarray:
        labels = response.get("labels")
        if not isinstance(labels, list) or len(labels) != n:
            raise ProtocolError(f"malformed labels for {n} inputs")
        values = np.asarray(labels)
        if (not np.issubdtype(values.dtype, np.integer)
                or (values < 0).any() or (values >= self.classes).any()):
            raise ProtocolError(f"labels outside [0, {self.classes})")
        return values.astype(np.int64)

    def query_logits(self, z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probability vector per (z, input) pair, z-major, (K * n, classes)."""
        if "logits" not in self.modes:
            raise AccessDeniedError("server is labels-only; probabilities are hidden")
        zs, inputs = check_query(z, inputs, self.feature_dim)
        return np.concatenate([np.empty((0, self.classes)), *self._query(
            "logits", zs, inputs, self._probabilities, [{}] * len(zs))])

    def query_labels(self, z: np.ndarray, inputs: np.ndarray, seeds=None) -> np.ndarray:
        """Label per (z, input) pair, z-major, (K * n,); one seed per z sample-decodes."""
        zs, inputs = check_query(z, inputs, self.feature_dim)
        if seeds is None:
            fields = [{"decode": "argmax", "seed": 0}] * len(zs)
        else:
            fields = [{"decode": "sample", "seed": seed}
                      for seed in check_decode_seeds(seeds, len(zs))]
        return np.concatenate([np.empty(0, dtype=np.int64), *self._query(
            "labels", zs, inputs, self._labels, fields)])


def _number_rows(rows) -> np.ndarray:
    """``rows`` as a float array; ValueError unless it is a list of lists of
    JSON numbers (no bools) within the float range. Shapes and finiteness are
    the simulator's to check."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and all(type(v) in (int, float) for row in rows for v in row)):
        raise ValueError("z and inputs must be lists of JSON numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("z and inputs must hold numbers within the float range") from None


def _handle_request(sim, request: dict) -> dict:
    """Decode one request's JSON and answer it with the simulator's own query,
    which holds every rule on shapes, finiteness and seeds; its ValueError is
    a bad request."""
    request_id = request.get("id")
    if not isinstance(request_id, int):
        return {"id": None, "error": "missing integer id", "kind": "bad-request"}
    mode = request.get("mode")
    decode = request.get("decode", "argmax")
    try:
        if mode not in ("logits", "labels"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "labels" and decode not in ("argmax", "sample"):
            raise ValueError(f"unknown decode {decode!r}")
        z = _number_rows([request.get("z")])[0]
        inputs = _number_rows(request.get("inputs"))
        if mode == "logits":
            return {"id": request_id, "outputs": sim.query_logits(z, inputs).tolist()}
        seeds = None if decode == "argmax" else [request.get("seed")]
        return {"id": request_id, "labels": sim.query_labels(z, inputs, seeds).tolist()}
    except (ValueError, *ERROR_KINDS.values()) as exc:
        kind = next((kind for kind, error in ERROR_KINDS.items() if isinstance(exc, error)),
                    "bad-request")
        return {"id": request_id, "error": str(exc), "kind": kind}


def serve(sim, rfile, wfile) -> None:
    """Serve one connection worth of requests from binary streams until EOF.

    Lines end at a newline byte and blank lines are skipped; a line that is
    not a UTF-8 JSON object gets one bad-request response.
    """
    handshake = {
        "protocol": PROTOCOL_VERSION,
        "classes": sim.classes,
        "feature_dim": sim.feature_dim,
        "prompt_dim": sim.prompt_dim,
        "modes": ["logits", "labels"] if sim.allow_logits else ["labels"],
    }
    wfile.write(_encode(handshake))
    wfile.flush()
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
            response = _handle_request(sim, request)
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
