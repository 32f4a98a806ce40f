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

from .blackbox import EvalBudget, check_decode_seed, z_rows
from .errors import AccessDeniedError, BudgetExhaustedError, ProtocolError
from .uqeval import check_probability_table

PROTOCOL_VERSION = 1
TIMEOUT = 30.0  # seconds a client waits to connect or for a server line


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
    in row order and concatenates their answers.
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
            kind = response.get("kind", "")
            message = f"server error: {response['error']}"
            if kind == "access-denied":
                raise AccessDeniedError(message)
            if kind == "budget":
                raise BudgetExhaustedError(message)
            raise ProtocolError(message)
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')} does not match request {request_id}")
        return response

    def _query(self, mode: str, z: np.ndarray, inputs: np.ndarray, parse,
               **fields) -> list[np.ndarray]:
        """Charge every pair, then send one v1 request per row of ``z`` and
        ``parse(response, n)`` each answer as it arrives, in row order."""
        zs = z_rows(z)
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        self.budget.charge(len(zs) * len(inputs))
        rows = inputs.tolist()
        return [parse(self._roundtrip({"mode": mode, "z": [float(v) for v in row],
                                       "inputs": rows, **fields}), len(inputs))
                for row in zs]

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
        return np.concatenate([np.empty((0, self.classes)),
                               *self._query("logits", z, inputs, self._probabilities)])

    def query_labels(self, z: np.ndarray, inputs: np.ndarray,
                     seed: int | None = None) -> np.ndarray:
        """Label per (z, input) pair, z-major, (K * n,); a seed sample-decodes one z."""
        if seed is None:
            fields = {"decode": "argmax", "seed": 0}
        else:
            fields = {"decode": "sample", "seed": check_decode_seed(seed, len(z_rows(z)))}
        return np.concatenate([np.empty(0, dtype=np.int64),
                               *self._query("labels", z, inputs, self._labels, **fields)])


def _finite_rows(rows: list) -> np.ndarray | None:
    """``rows`` (lists of equal length) as a float array, or None unless every
    entry is a finite JSON number."""
    if not all(type(v) in (int, float) for row in rows for v in row):
        return None
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


def _handle_request(sim, request: dict) -> dict:
    request_id = request.get("id")
    if not isinstance(request_id, int):
        return {"id": None, "error": "missing integer id", "kind": "bad-request"}

    def failure(message: str, kind: str = "bad-request") -> dict:
        return {"id": request_id, "error": message, "kind": kind}

    mode = request.get("mode")
    z = request.get("z")
    inputs = request.get("inputs")
    if not isinstance(z, list) or len(z) != sim.subspace_dim:
        return failure(f"z must have length {sim.subspace_dim}")
    if (not isinstance(inputs, list) or len(inputs) == 0
            or any(not isinstance(row, list) or len(row) != sim.feature_dim
                   for row in inputs)):
        return failure(f"inputs must be nonempty rows of length {sim.feature_dim}")
    z_arr = _finite_rows([z])
    x_arr = _finite_rows(inputs)
    if z_arr is None or x_arr is None:
        return failure("z and inputs must hold finite numbers only")
    z_arr = z_arr[0]

    try:
        if mode == "logits":
            probs = sim.query_logits(z_arr, x_arr)
            return {"id": request_id, "outputs": probs.tolist()}
        if mode == "labels":
            decode = request.get("decode", "argmax")
            if decode == "argmax":
                labels = sim.query_labels(z_arr, x_arr)
            elif decode == "sample":
                seed = request.get("seed")
                if type(seed) is not int or not 0 <= seed < 2 ** 64:
                    return failure("sample decode requires an integer seed in [0, 2^64)")
                labels = sim.sampled_labels(z_arr, x_arr, seed)
            else:
                return failure(f"unknown decode {decode!r}")
            return {"id": request_id, "labels": [int(v) for v in labels]}
        return failure(f"unknown mode {mode!r}")
    except AccessDeniedError as exc:
        return failure(str(exc), kind="access-denied")
    except BudgetExhaustedError as exc:
        return failure(str(exc), kind="budget")


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
        except ValueError:  # inputs that overflow the model yield NaN outputs
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
