"""Process-isolated replicas: socket transport behind the router contract.

:class:`~repro.serve.fleet.ForecastFleet` contains the loss of whole
replicas, but with ``transport="thread"`` every replica still shares an
interpreter, the GIL, and an address space with the router — a wedged or
corrupted replica can take the process down with it.  This module moves
each replica into its **own OS process** behind a length-prefixed socket
protocol, while presenting the **same synchronous contract** the router
already speaks (``submit`` / ``process_once`` / ``take_responses`` /
``abort`` / ``health`` / ``reload_checkpoint`` / ``queue`` /
``model_version``), so ``ForecastFleet(transport="process")`` swaps in
:class:`ProcReplicaClient` objects with zero router-logic changes.

Wire format — one frame per message, either direction::

    magic  b"RP"   (2 bytes)
    type   uint8   (frame kind, see the ``FRAME_*`` constants)
    length uint32  (big-endian payload byte count)
    crc    uint32  (big-endian CRC-32 of the payload)
    payload        (pickled python object)

Two failure tiers, deliberately distinct:

* :class:`WireCorruptFrameError` — the header framed correctly but the
  payload is damaged (CRC mismatch, unpicklable).  The stream is still
  in sync, so the frame is **dropped and counted** and the connection
  keeps serving (the process-fleet chaos tests inject exactly this).
* :class:`WireDesyncError` — bad magic or an absurd length: the byte
  stream itself can no longer be trusted.  The child exits (the
  supervisor restarts it); the parent marks the replica down.

Cross-process concerns the transport owns:

* **span stitching** — SUBMIT frames carry ``trace_id``/``span_id`` of
  the router's dispatch span; the child parents its ``request`` tree
  under a :func:`~repro.obs.spans.remote_parent` shim and ships its
  finished span records back (piggybacked on RESPONSE and HEARTBEAT
  frames) for :func:`~repro.obs.spans.ingest_span_record`, so
  ``check_fleet_traces`` sees one complete tree per request.  Child span
  ids are namespaced with ``set_span_id_prefix(f"{replica_id}.{pid}.")``
  so counters restarting at 1 in every child can never collide.
* **deadline budgets** — ``CLOCK_MONOTONIC`` is system-wide on Linux,
  so absolute ``time.monotonic`` deadlines propagate over the wire
  unchanged and the child's queue sheds doomed work itself.
* **orphan cleanup** — children are forked daemonic, every live client
  is registered for an atexit SIGKILL sweep, and each child arms
  ``prctl(PR_SET_PDEATHSIG, SIGKILL)`` so a hard-killed parent takes
  its replicas down with it.  Nothing survives the fleet.
* **chaos injection** — :meth:`ProcReplicaClient.kill_process` is a real
  ``SIGKILL`` mid-batch; :meth:`ProcReplicaClient.inject_wedge` makes
  the child admit work but never answer or heartbeat (optionally
  ignoring SIGTERM, forcing the supervisor's kill escalation);
  :meth:`ProcReplicaClient.inject_corrupt_frame` writes a damaged frame
  of either tier; ``slow_start_s`` delays READY to exercise the
  supervisor's readiness deadline.
"""

from __future__ import annotations

import atexit
import errno
import os
import pickle
import select
import signal
import socket
import struct
import threading
import time
import zlib

from ..obs import spans as _spans
from ..obs.spans import SpanCollector, ingest_span_record, remote_parent
from .queueing import DeadlineExceededError, ServiceOverloadedError
from .server import ForecastResponse
from .validation import InvalidRequestError

MAGIC = b"RP"
_HEADER = struct.Struct("!2sBII")  # magic, type, length, crc32
MAX_FRAME = 64 * 1024 * 1024  # anything larger means the stream is garbage

FRAME_READY = 1
FRAME_SUBMIT = 2
FRAME_ACK = 3
FRAME_RESPONSE = 4
FRAME_HEARTBEAT = 5
FRAME_CONTROL = 6
FRAME_CONTROL_ACK = 7
FRAME_RELOAD = 8
FRAME_RELOAD_RESULT = 9
FRAME_SHUTDOWN = 10
FRAME_BYE = 11

_FRAME_NAMES = {
    FRAME_READY: "ready", FRAME_SUBMIT: "submit", FRAME_ACK: "ack",
    FRAME_RESPONSE: "response", FRAME_HEARTBEAT: "heartbeat",
    FRAME_CONTROL: "control", FRAME_CONTROL_ACK: "control_ack",
    FRAME_RELOAD: "reload", FRAME_RELOAD_RESULT: "reload_result",
    FRAME_SHUTDOWN: "shutdown", FRAME_BYE: "bye",
}


class WireCorruptFrameError(RuntimeError):
    """A single frame is damaged; the stream is still framed correctly."""


class WireDesyncError(RuntimeError):
    """The byte stream lost framing; the connection cannot recover."""


class ReplicaStartupError(RuntimeError):
    """A spawned replica never reported READY within its deadline."""

    def __init__(self, replica_id: str, timeout: float):
        self.replica_id = replica_id
        super().__init__(
            f"replica {replica_id} not READY within {timeout:.1f}s")


def encode_frame(ftype: int, payload) -> bytes:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, ftype, len(blob), zlib.crc32(blob)) + blob


class FrameConn:
    """Buffered frame reader/writer over one stream socket.

    ``recv_frames`` parses every complete frame already buffered (plus
    whatever arrives within ``timeout``); corrupt frames are counted on
    :attr:`corrupt_frames` and skipped, desync raises.  EOF sets
    :attr:`eof` and returns whatever parsed before it.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()
        self.corrupt_frames = 0
        self.eof = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def send_frame(self, ftype: int, payload) -> None:
        self.sock.sendall(encode_frame(ftype, payload))

    def send_raw(self, blob: bytes) -> None:
        self.sock.sendall(blob)

    def recv_frames(self, timeout: float = 0.0) -> list[tuple[int, object]]:
        self._fill(timeout)
        frames: list[tuple[int, object]] = []
        while True:
            parsed = self._parse_one()
            if parsed is None:
                break
            frames.append(parsed)
        return frames

    def _fill(self, timeout: float) -> None:
        if self.eof:
            return
        # Socket-readiness deadlines are real I/O time, not simulated
        # time: both ends of the wire share system CLOCK_MONOTONIC.
        deadline = time.monotonic() + max(0.0, timeout)  # analyze: allow[RL004]
        first = True
        while True:
            wait = max(0.0, deadline - time.monotonic()) if first else 0.0  # analyze: allow[RL004]
            first = False
            try:
                readable, _, _ = select.select([self.sock], [], [], wait)
            except (OSError, ValueError):
                self.eof = True
                return
            if not readable:
                return
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                return
            except OSError as exc:
                if exc.errno in (errno.ECONNRESET, errno.EPIPE, errno.EBADF):
                    self.eof = True
                    return
                raise
            if not chunk:
                self.eof = True
                return
            self.buffer.extend(chunk)

    def _parse_one(self):
        if len(self.buffer) < _HEADER.size:
            return None
        magic, ftype, length, crc = _HEADER.unpack_from(self.buffer)
        if magic != MAGIC or length > MAX_FRAME:
            raise WireDesyncError(
                f"bad frame header (magic={magic!r}, length={length})")
        if len(self.buffer) < _HEADER.size + length:
            return None
        blob = bytes(self.buffer[_HEADER.size:_HEADER.size + length])
        del self.buffer[:_HEADER.size + length]
        if zlib.crc32(blob) != crc:
            self.corrupt_frames += 1
            return (None, None)  # replaced by caller-side skip below
        try:
            payload = pickle.loads(blob)
        except Exception:
            self.corrupt_frames += 1
            return (None, None)
        return (ftype, payload)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # analyze: allow[RL006] double-close on teardown is benign
            pass


def _drop_corrupt(frames: list[tuple[int, object]]) -> list[tuple[int, object]]:
    return [(ftype, payload) for ftype, payload in frames if ftype is not None]


# --------------------------------------------------------------------- #
# orphan cleanup: one atexit sweep over every live client
# --------------------------------------------------------------------- #

_LIVE_CLIENTS: set["ProcReplicaClient"] = set()
_CLEANUP_REGISTERED = False
_REGISTRY_LOCK = threading.Lock()


def _kill_orphans() -> None:
    for client in list(_LIVE_CLIENTS):
        client._hard_kill_quiet()


def _register(client: "ProcReplicaClient") -> None:
    global _CLEANUP_REGISTERED
    with _REGISTRY_LOCK:
        _LIVE_CLIENTS.add(client)
        if not _CLEANUP_REGISTERED:
            atexit.register(_kill_orphans)
            _CLEANUP_REGISTERED = True


def _unregister(client: "ProcReplicaClient") -> None:
    with _REGISTRY_LOCK:
        _LIVE_CLIENTS.discard(client)


# --------------------------------------------------------------------- #
# the child process
# --------------------------------------------------------------------- #


def _arm_parent_death_signal() -> None:
    """SIGKILL this child the instant its parent dies (Linux prctl)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:  # analyze: allow[RL006] non-Linux: atexit sweep + daemon flag still cover cleanup
        pass


class _ChildState:
    """Mutable runtime flags shared with the SIGTERM handler."""

    def __init__(self):
        self.term_received = False
        self.wedged = False
        self.ignore_term = False


def _error_payload(exc: Exception) -> dict:
    if isinstance(exc, InvalidRequestError):
        return {"type": "InvalidRequestError",
                "code": exc.code, "detail": exc.detail}
    if isinstance(exc, DeadlineExceededError):
        return {"type": "DeadlineExceededError",
                "request_id": exc.request_id, "detail": str(exc)}
    if isinstance(exc, ServiceOverloadedError):
        return {"type": "ServiceOverloadedError", "depth": exc.depth,
                "max_depth": exc.max_depth, "detail": str(exc)}
    return {"type": type(exc).__name__, "detail": str(exc)}


def rebuild_wire_error(error: dict) -> Exception:
    """Reconstruct a front-door exception shipped in an ACK frame."""
    kind = error.get("type", "")
    if kind == "InvalidRequestError":
        return InvalidRequestError(error.get("code", "invalid"),
                                   error.get("detail", ""))
    if kind == "DeadlineExceededError":
        # The message already rendered in the child; carry it verbatim.
        exc = DeadlineExceededError(error.get("request_id", ""), 0.0, 0.0)
        exc.args = (error.get("detail", str(exc)),)
        return exc
    if kind == "ServiceOverloadedError":
        return ServiceOverloadedError(error.get("depth", 0),
                                      error.get("max_depth", 0),
                                      detail=error.get("detail", ""))
    return RuntimeError(f"replica error {kind}: {error.get('detail', '')}")


def _child_main(conn: FrameConn, server_factory, replica_id: str,
                options: dict) -> int:
    """Replica child: single-threaded pump between socket and server.

    The child never spawns the server's worker thread — the pump loop
    *is* the scheduler, so there is exactly one thread to reason about
    after fork.  Returns the intended exit code (the caller ``os._exit``s
    with it).
    """
    _arm_parent_death_signal()
    _spans._fork_reset()
    _spans.set_span_id_prefix(f"{replica_id}.{os.getpid()}.")
    collector = SpanCollector().install()

    state = _ChildState()

    def _on_term(signum, frame):
        if not state.ignore_term:
            state.term_received = True

    signal.signal(signal.SIGTERM, _on_term)

    slow_start = float(options.get("slow_start_s", 0.0))
    if slow_start > 0:
        time.sleep(slow_start)  # analyze: allow[RL010] startup chaos injection, not a retry loop

    heartbeat_interval = float(options.get("heartbeat_interval", 0.2))
    server = server_factory()

    shipped = 0

    def _take_spans() -> list[dict]:
        nonlocal shipped
        with collector._records_lock:
            fresh = collector.records[shipped:]
            shipped = len(collector.records)
            if shipped > 4096:  # bound child memory on long runs
                del collector.records[:shipped]
                shipped = 0
            return list(fresh)

    def _heartbeat() -> None:
        conn.send_frame(FRAME_HEARTBEAT, {
            "replica_id": replica_id,
            "pid": os.getpid(),
            "status": "degraded" if server.breaker.state != "closed" else "ok",
            "model_version": server.model_version,
            "queue_depth": len(server.queue),
            "breaker": server.breaker.state,
            "corrupt_frames": conn.corrupt_frames,
            "spans": _take_spans(),
        })

    def _flush_responses() -> None:
        for resp in server.take_responses():
            conn.send_frame(FRAME_RESPONSE, {
                "response": vars(resp),
                "spans": _take_spans(),
            })

    conn.send_frame(FRAME_READY, {
        "replica_id": replica_id,
        "pid": os.getpid(),
        "model_version": server.model_version,
    })
    # The child runs on real time by construction: wire deadlines are
    # absolute CLOCK_MONOTONIC values minted by the router.
    last_heartbeat = time.monotonic()  # analyze: allow[RL004]

    while True:
        if state.term_received:
            server.drain()
            _flush_responses()
            conn.send_frame(FRAME_BYE, {"reason": "sigterm",
                                        "spans": _take_spans()})
            return 0
        try:
            frames = _drop_corrupt(conn.recv_frames(timeout=0.02))
        except WireDesyncError:
            return 3  # stream poisoned: die loudly, supervisor restarts us
        if conn.eof:
            return 0  # parent is gone; PDEATHSIG is the backstop
        for ftype, payload in frames:
            if state.wedged and ftype == FRAME_CONTROL:
                if payload.get("op") == "unwedge":
                    state.wedged = False
                    state.ignore_term = False
                    conn.send_frame(FRAME_CONTROL_ACK,
                                    {"rpc": payload.get("rpc"), "ok": True})
                continue
            if state.wedged:
                if ftype == FRAME_SUBMIT:
                    # A wedged worker still *admits* — it just never
                    # answers or heartbeats (matches the thread-mode
                    # pause semantics the chaos suite encodes).
                    trace = payload.get("trace")
                    parent = (remote_parent(trace["trace_id"],
                                            trace["span_id"])
                              if trace else None)
                    try:
                        request_id = server.submit(payload["payload"],
                                                   parent_span=parent)
                        conn.send_frame(FRAME_ACK, {
                            "id": payload["id"], "ok": True,
                            "request_id": request_id})
                    except Exception:  # analyze: allow[RL006] wedged: stay silent on rejection too
                        pass
                continue
            if ftype == FRAME_SUBMIT:
                parent = None
                trace = payload.get("trace")
                if trace:
                    parent = remote_parent(trace["trace_id"], trace["span_id"])
                try:
                    request_id = server.submit(payload["payload"],
                                               parent_span=parent)
                except Exception as exc:
                    conn.send_frame(FRAME_ACK, {
                        "id": payload["id"], "ok": False,
                        "error": _error_payload(exc),
                        "spans": _take_spans()})
                else:
                    conn.send_frame(FRAME_ACK, {
                        "id": payload["id"], "ok": True,
                        "request_id": request_id})
            elif ftype == FRAME_CONTROL:
                op = payload.get("op")
                if op == "wedge":
                    state.wedged = True
                    state.ignore_term = bool(payload.get("ignore_term"))
                elif op == "abort":
                    server.abort(reason=payload.get("reason", "aborted"))
                conn.send_frame(FRAME_CONTROL_ACK,
                                {"rpc": payload.get("rpc"), "ok": True})
            elif ftype == FRAME_RELOAD:
                ok = server.reload_checkpoint(payload["path"])
                conn.send_frame(FRAME_RELOAD_RESULT, {
                    "rpc": payload.get("rpc"), "ok": ok,
                    "model_version": server.model_version,
                    "spans": _take_spans()})
            elif ftype == FRAME_SHUTDOWN:
                if payload.get("drain", True):
                    server.drain()
                _flush_responses()
                conn.send_frame(FRAME_BYE, {"reason": "shutdown",
                                            "spans": _take_spans()})
                return 0
            # unknown frame types are ignored (forward compatibility)
        if not state.wedged:
            server.process_once()
            _flush_responses()
            now = time.monotonic()  # analyze: allow[RL004] child heartbeat pacing is real time
            if now - last_heartbeat >= heartbeat_interval:
                _heartbeat()
                last_heartbeat = now


def _child_entry(sock: socket.socket, server_factory, replica_id: str,
                 options: dict) -> None:
    conn = FrameConn(sock)
    code = 1
    try:
        code = _child_main(conn, server_factory, replica_id, options)
    except (BrokenPipeError, ConnectionResetError):
        code = 0  # parent went away mid-write
    except Exception:
        import traceback

        traceback.print_exc()
        code = 1
    finally:
        conn.close()
        # Never run the parent's inherited atexit/teardown machinery.
        os._exit(code)


# --------------------------------------------------------------------- #
# the router-side client
# --------------------------------------------------------------------- #


class _InflightView:
    """``len()``-able stand-in for the remote queue (router contract)."""

    def __init__(self, client: "ProcReplicaClient"):
        self._client = client

    def __len__(self) -> int:
        return self._client.outstanding


class ProcReplicaClient:
    """One out-of-process replica, speaking the in-process server contract.

    The router calls exactly what it calls on a local
    :class:`~repro.serve.server.ForecastServer` — ``submit`` is a
    synchronous SUBMIT→ACK round trip (admission errors are
    reconstructed and re-raised, a dead or silent child raises
    ``ReplicaDownError``), ``process_once`` drains the socket
    (responses, heartbeats, span backhaul), and ``health`` serves the
    last heartbeat.  Lifecycle (``spawn``/``respawn``/``terminate_process``
    /``kill_process``/``close``) and chaos (``inject_wedge``,
    ``inject_corrupt_frame``) are what the supervisor and the
    process-fleet chaos tests drive.
    """

    def __init__(
        self,
        replica_id: str,
        server_factory,
        *,
        heartbeat_interval: float = 0.2,
        ack_timeout: float = 2.0,
        slow_start_s: float = 0.0,
        logger=None,
    ):
        self.replica_id = replica_id
        self._server_factory = server_factory
        self.heartbeat_interval = heartbeat_interval
        self.ack_timeout = ack_timeout
        self.slow_start_s = slow_start_s
        self.logger = logger
        self.queue = _InflightView(self)

        self._lock = threading.RLock()
        self._conn: FrameConn | None = None
        self._process = None
        self._ready = False
        self._bye = False
        self._model_version: str | None = None
        self._last_heartbeat: float | None = None
        self._health: dict = {}
        self._inflight: set[str] = set()
        self._responses: list[ForecastResponse] = []
        self._rpc_results: dict[int, dict] = {}
        self._rpc_ids = iter(range(1, 1 << 62))
        self.restarts = 0

    # -- lifecycle ------------------------------------------------------- #

    def spawn(self) -> None:
        """Fork the replica child (idempotent while alive)."""
        with self._lock:
            if self.is_alive():
                return
            import multiprocessing

            parent_sock, child_sock = socket.socketpair()
            ctx = multiprocessing.get_context("fork")
            options = {
                "heartbeat_interval": self.heartbeat_interval,
                "slow_start_s": self.slow_start_s,
            }
            self._process = ctx.Process(
                target=_child_entry,
                args=(child_sock, self._server_factory, self.replica_id,
                      options),
                name=f"replica-{self.replica_id}",
                daemon=True,
            )
            self._process.start()
            child_sock.close()
            self._conn = FrameConn(parent_sock)
            self._ready = False
            self._bye = False
            self._last_heartbeat = None
            self._inflight.clear()
        _register(self)
        self._log("replica_spawned", replica_id=self.replica_id, pid=self.pid)

    def respawn(self) -> None:
        """Replace a dead child with a fresh fork (supervisor restart)."""
        with self._lock:
            self._hard_kill_quiet()
            self._process = None
            self._conn = None
            self.restarts += 1
        self.spawn()

    # The snapshot properties take the (reentrant) lock: respawn/close
    # rebind _process and _handle_frame mutates the rest, so lock-free
    # reads would race the router against the atexit/supervisor paths.

    @property
    def pid(self) -> int | None:
        with self._lock:
            return self._process.pid if self._process is not None else None

    def is_alive(self) -> bool:
        with self._lock:
            return self._process is not None and self._process.is_alive()

    @property
    def ready(self) -> bool:
        with self._lock:
            return self._ready and self.is_alive()

    @property
    def last_heartbeat(self) -> float | None:
        with self._lock:
            return self._last_heartbeat

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._inflight)

    def wait_ready(self, timeout: float = 10.0) -> None:
        # Startup of a real fork is bounded in real seconds; an injected
        # clock has no meaning across the process boundary.
        deadline = time.monotonic() + timeout  # analyze: allow[RL004]
        while time.monotonic() < deadline:  # analyze: allow[RL004]
            self.poll_transport()
            if self.ready:
                return
            if not self.is_alive():
                break
            time.sleep(0.005)  # analyze: allow[RL010] startup barrier poll, not a retry loop
        self.poll_transport()
        if self.ready:
            return
        raise ReplicaStartupError(self.replica_id, timeout)

    def terminate_process(self) -> None:
        """Graceful stop request: SIGTERM (the child drains, then exits)."""
        with self._lock:
            if self._process is not None and self._process.is_alive():
                try:
                    os.kill(self._process.pid, signal.SIGTERM)
                except (OSError, TypeError):  # analyze: allow[RL006] child already gone
                    pass

    def kill_process(self) -> None:
        """Hard crash: SIGKILL, queued work dies with the child."""
        with self._lock:
            self._hard_kill_quiet()
            self._ready = False

    def _hard_kill_quiet(self) -> None:
        process = self._process
        if process is not None and process.is_alive():
            try:
                process.kill()
            except Exception:  # analyze: allow[RL006] child already gone
                pass
            process.join(timeout=5.0)

    def close(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Orderly shutdown: SHUTDOWN → BYE, escalating TERM → KILL."""
        with self._lock:
            conn = self._conn
            if conn is not None and self.is_alive():
                try:
                    conn.send_frame(FRAME_SHUTDOWN, {"drain": drain})
                except OSError:  # analyze: allow[RL006] dead wire: fall through to TERM/KILL
                    pass
                deadline = time.monotonic() + timeout  # analyze: allow[RL004]
                while (time.monotonic() < deadline and not self._bye  # analyze: allow[RL004]
                       and self.is_alive()):
                    # analyze: allow[CC003] shutdown handshake: 20ms bounded polls; the lock must fence out submits
                    self._drain_socket(wait=0.02)
            if self._process is not None and self._process.is_alive():
                self.terminate_process()
                self._process.join(timeout=1.0)
            self._hard_kill_quiet()
            if conn is not None:
                conn.close()
                self._conn = None
            self._ready = False
            got_bye = self._bye
        _unregister(self)
        self._log("replica_closed", replica_id=self.replica_id,
                  got_bye=got_bye)

    # -- router contract ------------------------------------------------- #

    @property
    def model_version(self) -> str:
        with self._lock:
            return self._model_version or "unknown"

    def submit(self, payload, *, parent_span=None) -> str:
        """SUBMIT → ACK round trip; admission errors re-raise locally."""
        from .fleet import ReplicaDownError

        frame = {"id": str(payload.get("id", "")), "payload": payload}
        if parent_span is not None:
            frame["trace"] = {"trace_id": parent_span.trace_id,
                              "span_id": parent_span.span_id}
        with self._lock:
            if self._conn is None or not self.is_alive():
                raise ReplicaDownError(self.replica_id)
            try:
                self._conn.send_frame(FRAME_SUBMIT, frame)
            except OSError:
                raise ReplicaDownError(self.replica_id) from None
            # analyze: allow[CC003] SUBMIT->ACK is a deliberate synchronous RPC bounded by ack_timeout; the lock serializes the wire
            ack = self._await(FRAME_ACK,
                              lambda p: p.get("id") == frame["id"],
                              self.ack_timeout)
            if ack is None:
                raise ReplicaDownError(self.replica_id)
            if not ack.get("ok"):
                raise rebuild_wire_error(ack.get("error", {}))
            request_id = ack["request_id"]
            self._inflight.add(request_id)
            return request_id

    def process_once(self) -> list[ForecastResponse]:
        """Drain the socket; returns responses that arrived this round."""
        with self._lock:
            before = len(self._responses)
            # analyze: allow[CC003] wait=0.0 makes this a non-blocking poll; recv fires only after select says readable
            self._drain_socket(wait=0.0)
            return self._responses[before:]

    # Supervisor-facing alias: pump a replica the router is not routing to
    # (killed/restarting) so READY and heartbeats still get observed.
    poll_transport = process_once

    def take_responses(self) -> list[ForecastResponse]:
        with self._lock:
            out, self._responses = self._responses, []
            return out

    def abort(self, reason: str = "aborted") -> list[str]:
        """Drop the router-side view of everything outstanding.

        If the child is still alive it is told to abort its queue too
        (fire-and-forget); after a SIGKILL there is no child to tell —
        the ids are what the router needs for failover either way.
        """
        with self._lock:
            dropped = sorted(self._inflight)
            self._inflight.clear()
            if self._conn is not None and self.is_alive():
                try:
                    self._conn.send_frame(FRAME_CONTROL,
                                          {"op": "abort", "reason": reason})
                except OSError:  # analyze: allow[RL006] fire-and-forget; ids are what failover needs
                    pass
            return dropped

    def health(self) -> dict:
        with self._lock:
            # analyze: allow[CC003] wait=0.0 makes this a non-blocking poll; recv fires only after select says readable
            self._drain_socket(wait=0.0)
            if not self.is_alive():
                return {"status": "down",
                        "model_version": self.model_version,
                        "queue_depth": 0, "pid": self.pid,
                        "transport": "process"}
            base = {"status": "ok" if self._ready else "starting",
                    "model_version": self.model_version,
                    "queue_depth": len(self._inflight)}
            base.update(self._health)
            base["pid"] = self.pid
            base["transport"] = "process"
            return base

    def reload_checkpoint(self, path) -> bool:
        result = self._rpc(FRAME_RELOAD, {"path": str(path)},
                           FRAME_RELOAD_RESULT, timeout=30.0)
        if result is None:
            return False
        if result.get("model_version"):
            with self._lock:
                self._model_version = result["model_version"]
        return bool(result.get("ok"))

    # -- chaos injection -------------------------------------------------- #

    def inject_wedge(self, ignore_term: bool = False) -> bool:
        """Wedge the child: admits work, never answers or heartbeats."""
        result = self._rpc(FRAME_CONTROL,
                           {"op": "wedge", "ignore_term": ignore_term},
                           FRAME_CONTROL_ACK, timeout=self.ack_timeout)
        return result is not None and bool(result.get("ok"))

    def inject_unwedge(self) -> bool:
        result = self._rpc(FRAME_CONTROL, {"op": "unwedge"},
                           FRAME_CONTROL_ACK, timeout=self.ack_timeout)
        return result is not None and bool(result.get("ok"))

    def inject_corrupt_frame(self, kind: str = "crc") -> None:
        """Write a deliberately damaged frame onto the wire.

        ``"crc"`` flips the checksum (recoverable: the child drops and
        counts it), ``"payload"`` ships unpicklable bytes under a valid
        CRC (also recoverable), ``"magic"`` poisons the stream itself
        (the child exits with a desync; the supervisor restarts it).
        """
        blob = pickle.dumps({"op": "noop"})
        if kind == "crc":
            raw = _HEADER.pack(MAGIC, FRAME_CONTROL, len(blob),
                               zlib.crc32(blob) ^ 0xDEADBEEF) + blob
        elif kind == "payload":
            junk = b"\x80\x05not-a-pickle"
            raw = _HEADER.pack(MAGIC, FRAME_CONTROL, len(junk),
                               zlib.crc32(junk)) + junk
        elif kind == "magic":
            raw = b"XX" + _HEADER.pack(MAGIC, FRAME_CONTROL, len(blob),
                                       zlib.crc32(blob))[2:] + blob
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send_raw(raw)
                except OSError:  # analyze: allow[RL006] chaos injection on a dead wire is a no-op
                    pass

    # -- plumbing --------------------------------------------------------- #

    def _rpc(self, ftype: int, payload: dict, reply_type: int,
             timeout: float):
        rpc_id = next(self._rpc_ids)
        payload = dict(payload, rpc=rpc_id)
        with self._lock:
            if self._conn is None or not self.is_alive():
                return None
            try:
                self._conn.send_frame(ftype, payload)
            except OSError:
                return None
            # analyze: allow[CC003] control-plane RPC is a deliberate bounded synchronous round trip; the lock serializes the wire
            return self._await(reply_type,
                               lambda p: p.get("rpc") == rpc_id, timeout)

    def _await(self, reply_type: int, predicate, timeout: float):
        # Callers hold self._lock.  Frames that are not the awaited reply
        # are demuxed through the normal handlers (responses, heartbeats).
        deadline = time.monotonic() + timeout  # analyze: allow[RL004] real wire-I/O timeout
        while time.monotonic() < deadline:  # analyze: allow[RL004]
            got = self._drain_socket(wait=0.02, want=(reply_type, predicate))
            if got is not None:
                return got
            if not self.is_alive() and (self._conn is None or self._conn.eof):
                return None
        return None

    def _drain_socket(self, wait: float, want=None):
        # Callers hold self._lock.
        conn = self._conn
        if conn is None:
            return None
        matched = None
        try:
            frames = _drop_corrupt(conn.recv_frames(timeout=wait))
        except WireDesyncError:
            self._log("replica_wire_desync", replica_id=self.replica_id)
            self.kill_process()
            return None
        except OSError:
            return None
        for ftype, payload in frames:
            if (want is not None and matched is None and ftype == want[0]
                    and want[1](payload)):
                matched = payload
                self._ingest_spans(payload)
                continue
            self._handle_frame(ftype, payload)
        return matched

    def _handle_frame(self, ftype: int, payload) -> None:
        if not isinstance(payload, dict):
            return
        self._ingest_spans(payload)
        if ftype == FRAME_READY:
            # Every path into _handle_frame runs under self._lock (see
            # _drain_socket's callers); heartbeat ages are compared
            # against the supervisor's clock, which is monotonic too.
            self._ready = True  # analyze: allow[RL008]
            self._model_version = payload.get("model_version")
            self._last_heartbeat = time.monotonic()  # analyze: allow[RL004,RL008]
            self._log("replica_ready", replica_id=self.replica_id,
                      pid=payload.get("pid"),
                      model_version=self._model_version)
        elif ftype == FRAME_HEARTBEAT:
            self._last_heartbeat = time.monotonic()  # analyze: allow[RL004,RL008]
            self._model_version = payload.get("model_version",
                                              self._model_version)
            self._health = {
                "status": payload.get("status", "ok"),
                "queue_depth": payload.get("queue_depth", 0),
                "breaker": payload.get("breaker"),
                "corrupt_frames": payload.get("corrupt_frames", 0),
            }
        elif ftype == FRAME_RESPONSE:
            fields = payload.get("response", {})
            response = ForecastResponse(**fields)
            self._inflight.discard(response.request_id)
            self._responses.append(response)
        elif ftype == FRAME_BYE:
            self._bye = True  # analyze: allow[RL008] under _lock via _drain_socket's callers

    @staticmethod
    def _ingest_spans(payload: dict) -> None:
        for record in payload.get("spans") or ():
            ingest_span_record(record)

    def _log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.log(event, **fields)
