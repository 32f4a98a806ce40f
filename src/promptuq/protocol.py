"""External simulator protocol v3: newline-delimited JSON over stdio or TCP.

The server speaks first with a handshake line

    {"protocol": 3, "classes": C, "feature_dim": F, "prompt_dim": D,
     "subspace_dim": d, "modes": ["logits", "labels"]}

then answers one request per line:

    register {"id": u64, "op": "register", "inputs": <(n, F) f8>}
          -> {"id": u64, "dataset": i}
    query    {"id": u64, "mode": "logits"|"labels", "zs": <(K, d) f8>,
              "dataset": i, "seeds": [u64...]}
          -> {"id": u64, "outputs": <(K * n, C) f8>}  (logits mode, rows sum to 1)
             {"id": u64, "labels": <(K * n,) i8>}     (labels mode)
    failure  {"id": u64|null, "error": str, "kind": str}

Every message is one line of UTF-8 JSON ending in a newline byte. Every
array is base64 of its C-order little-endian bytes (``pack``); the handshake
gives its row width and its length its rows, so "" is an empty stack. A
register request stores an input matrix under a dataset index that lives as
long as the connection. A query names one dataset and carries a whole (K, d)
stack of z; its answer holds all K * n rows in z-major order. ``seeds``
(labels mode only) holds one sample-decode seed per z; without it labels are
argmax decoded. The seeds drive sample decoding and floats cross as their
own bytes, so a served simulator reproduces in-process results bit for bit.

Both ends keep no query rules of their own. The client admits a query
through ``blackbox.SimulatorHandle._admit`` (the handshake gives it the
dimensions and modes), which checks and charges it before anything is sent,
sends nothing for an empty query, and registers each distinct input matrix
once per connection. The server only decodes the JSON (an id in [0, 2^64),
op, mode, dataset index, packed arrays) and answers through the simulator's
own query, whose ValueError becomes a bad-request.
"""

from __future__ import annotations

import base64
import json
import os
import select
import socket
import socketserver
import subprocess
import sys

import numpy as np

from .blackbox import MODES, SimulatorHandle
from .errors import (AccessDeniedError, BudgetExhaustedError, NumericalBreakdownError,
                     ProtocolError)
from .uqeval import check_probability_table

PROTOCOL_VERSION = 3
TIMEOUT = 30.0  # seconds a client waits to connect or for a server line
# The failures a server reports by kind, and the client raises again; any
# other failure, a ValueError from the simulator included, is a bad request.
ERROR_KINDS = {"access-denied": AccessDeniedError, "budget": BudgetExhaustedError,
               "numerical-breakdown": NumericalBreakdownError}


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def pack(array, dtype: str) -> str:
    """``array`` as base64 of its C-order ``dtype`` (``"<f8"`` or ``"<i8"``) bytes."""
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype)).decode("ascii")


def unpack(text, width: int, dtype: str) -> np.ndarray:
    """The (rows, ``width``) array ``pack`` wrote as ``text``, in native byte
    order; ValueError unless ``text`` is a base64 string of whole rows."""
    if not isinstance(text, str):
        raise ValueError("an array must be a base64 string")
    data = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(data) % (np.dtype(dtype).itemsize * width):
        raise ValueError(f"{len(data)} bytes are not whole rows of {width} {dtype}")
    return np.frombuffer(data, dtype).reshape(-1, width).astype(np.dtype(dtype).newbyteorder("="))


class _LineTransport:
    """Line framing over a readable file descriptor; a subclass writes lines.
    An OSError either way is a ``ProtocolError``: the simulator connection is lost."""

    def __init__(self, fd: int):
        self._fd = fd
        self._buffer = bytearray()

    def readline(self) -> bytes:
        """The next line without its newline. Each byte is scanned once, so a
        long line costs time linear in its length."""
        end = self._buffer.find(b"\n")
        while end < 0:
            scanned = len(self._buffer)
            if not select.select([self._fd], [], [], TIMEOUT)[0]:
                raise ProtocolError(f"timed out after {TIMEOUT}s waiting for server")
            try:
                chunk = os.read(self._fd, 65536)
            except OSError as exc:
                raise ProtocolError(f"lost the simulator connection: {exc}") from exc
            if not chunk:
                raise ProtocolError("server closed the connection")
            self._buffer.extend(chunk)
            end = self._buffer.find(b"\n", scanned)
        line = bytes(memoryview(self._buffer)[:end])  # one copy; the view is gone after it
        del self._buffer[:end + 1]
        return line


class PipeTransport(_LineTransport):
    """Line framing over a child process's stdin/stdout."""

    def __init__(self, proc: subprocess.Popen):
        super().__init__(proc.stdout.fileno())
        self._proc = proc

    def writeline(self, data: bytes) -> None:
        try:
            self._proc.stdin.write(data)
            self._proc.stdin.flush()
        except OSError as exc:
            raise ProtocolError(f"lost the simulator connection: {exc}") from exc

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
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ProtocolError(f"lost the simulator connection: {exc}") from exc

    def close(self) -> None:
        self._sock.close()


class ExternalSimulator(SimulatorHandle):
    """Client of a protocol server: the handshake sets ``modes`` and the four
    dimensions, and ``close()`` ends the connection.

    An admitted query is sent as one request carrying its whole (K, d) stack
    of z; its input matrix is registered with the server the first time this
    connection sees it, so a repeated matrix costs only its z.
    """

    def __init__(self, transport):
        self._transport = transport
        self._next_id = 0
        self._datasets: dict[str, int] = {}  # packed inputs -> server index
        handshake = self._read_payload()
        version = handshake.get("protocol")
        if type(version) is not int or version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported handshake: the server speaks protocol "
                f"{version!r}, this client protocol {PROTOCOL_VERSION}: "
                f"{handshake}")
        dims = [handshake.get(key) for key in self.DIMENSIONS]
        modes = handshake.get("modes")
        # positive JSON integers, at least two classes, distinct known modes with labels
        if not (all(type(dim) is int and dim > 0 for dim in dims) and dims[0] >= 2
                and isinstance(modes, list) and "labels" in modes and all(m in MODES for m in modes)
                and len(set(modes)) == len(modes)):
            raise ProtocolError(f"malformed handshake: {handshake}")
        super().__init__(modes, *dims)

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
        try:
            return cls(SocketTransport(sock))
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        self._transport.close()

    def _read_payload(self) -> dict:
        line = self._transport.readline()
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON; deep nesting
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

    def _dataset(self, inputs: str) -> int:
        """The server's index of the packed ``inputs``, registering them on first use."""
        if inputs not in self._datasets:
            response = self._roundtrip({"op": "register", "inputs": inputs})
            index = response.get("dataset")
            if type(index) is not int:
                raise ProtocolError(f"malformed dataset index {index!r} for a register")
            self._datasets[inputs] = index
        return self._datasets[inputs]

    def _query(self, request: dict, zs: np.ndarray, inputs: np.ndarray, key: str,
               width: int, dtype: str) -> np.ndarray:
        """Send an admitted query as one request and unpack the answer's
        ``key`` field into its (K * n, ``width``) rows; an empty query sends
        nothing."""
        rows = len(zs) * len(inputs)
        if rows == 0:
            return np.empty((0, width), dtype)
        request.update(zs=pack(zs, "<f8"), dataset=self._dataset(pack(inputs, "<f8")))
        answer = self._roundtrip(request).get(key)
        try:
            answer = unpack(answer, width, dtype)
        except ValueError as exc:
            raise ProtocolError(f"malformed {key} for {rows} pairs: {exc}") from exc
        if len(answer) != rows:
            raise ProtocolError(f"malformed {key} for {rows} pairs: {len(answer)} rows")
        return answer

    def query_logits(self, z: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probability vector per (z, input) pair, z-major, (K * n, classes)."""
        zs, inputs, _ = self._admit("logits", z, inputs)
        probs = self._query({"mode": "logits"}, zs, inputs, "outputs", self.classes, "<f8")
        try:
            return check_probability_table(probs) if len(probs) else probs
        except ValueError as exc:
            raise ProtocolError(f"logits-mode outputs are not probability rows: {exc}") from exc

    def query_labels(self, z: np.ndarray, inputs: np.ndarray, seeds=None) -> np.ndarray:
        """Label per (z, input) pair, z-major, (K * n,); one seed per z sample-decodes."""
        zs, inputs, seeds = self._admit("labels", z, inputs, seeds)
        request = {"mode": "labels"} if seeds is None else {"mode": "labels", "seeds": seeds}
        labels = self._query(request, zs, inputs, "labels", 1, "<i8")[:, 0]
        if ((labels < 0) | (labels >= self.classes)).any():
            raise ProtocolError(f"labels outside [0, {self.classes})")
        return labels


def _handle_request(sim, datasets: list, request: dict) -> dict:
    """Decode one request's JSON and answer it: a register appends its inputs
    to this connection's ``datasets``; a query is answered by the simulator's
    own query, which holds every rule on shapes, finiteness and seeds. A
    ValueError is a bad request."""
    request_id = request.get("id")
    if type(request_id) is not int or not 0 <= request_id < 2 ** 64:
        return {"id": None, "error": "missing u64 id", "kind": "bad-request"}
    mode, index = request.get("mode"), request.get("dataset")
    try:
        if "op" in request:
            if request["op"] != "register":
                raise ValueError(f"unknown op {request['op']!r}")
            datasets.append(unpack(request.get("inputs"), sim.feature_dim, "<f8"))
            return {"id": request_id, "dataset": len(datasets) - 1}
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if type(index) is not int or not 0 <= index < len(datasets):
            raise ValueError(f"unknown dataset {index!r}")
        zs, inputs = unpack(request.get("zs"), sim.subspace_dim, "<f8"), datasets[index]
        if mode == "logits":
            if "seeds" in request:
                raise ValueError("seeds are for labels queries only")
            return {"id": request_id, "outputs": pack(sim.query_logits(zs, inputs), "<f8")}
        labels = sim.query_labels(zs, inputs, request.get("seeds"))
        return {"id": request_id, "labels": pack(labels, "<i8")}
    except (ValueError, *ERROR_KINDS.values()) as exc:
        kind = next((kind for kind, error in ERROR_KINDS.items() if isinstance(exc, error)),
                    "bad-request")
        return {"id": request_id, "error": str(exc), "kind": kind}


def serve(sim, rfile, wfile) -> None:
    """Serve one connection worth of requests from binary streams until EOF. A
    client that hangs up (a broken pipe or a reset connection) ends it too.

    The datasets registered on the connection live until it ends. Lines end
    at a newline byte and blank lines are skipped; a line that is not a UTF-8
    JSON object gets one bad-request response.
    """
    handshake = {"protocol": PROTOCOL_VERSION,
                 **{name: getattr(sim, name) for name in SimulatorHandle.DIMENSIONS},
                 "modes": list(sim.modes)}
    try:
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
            wfile.write(_encode(response))
            wfile.flush()
    except (BrokenPipeError, ConnectionResetError):
        pass


def serve_stdio(sim) -> None:
    serve(sim, sys.stdin.buffer, sys.stdout.buffer)
    # Bytes a hung-up client did not take stay in stdout's buffer, and the
    # interpreter's last flush would fail on them; the session is over, so
    # stdout goes to the null device.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


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
