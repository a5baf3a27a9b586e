"""Cluster coordinator: lease-based dispatch to remote workers.

:class:`ClusterExecutor` implements the
:class:`~repro.service.executor.Executor` protocol over a fleet of
:class:`~repro.cluster.worker.WorkerClient` processes instead of a
local process pool.  The scheduler above it is unchanged — dedup,
journal, admission, breaker and deadlines all happen before a cell
reaches this module, and results flow back through the same
``on_result`` callback the local pool uses.

Life of a cell here:

1. ``submit`` buffers ``(spec, payload)``; ``drain`` runs the batch.
2. Dispatch charges an attempt on the drain's
   :class:`~repro.service.executor.AttemptLedger` — the same one the
   local pool keeps, so retry, refund and fault-injection rules are
   identical — and sends a ``lease`` frame to a worker with a free
   slot.
3. The worker streams back a ``result`` or ``error`` frame; results
   are validated and delivered immediately, failures are retried with
   exponential backoff up to the configured budget.
4. Leases are *recovered*, never lost: a worker whose connection dies
   charges its leases one ``worker-lost`` attempt and re-queues them;
   a worker silent past ``hang_grace`` (heartbeats stale) is expelled
   the same way as ``worker-hung``; a lease past the per-cell timeout
   charges ``timeout``, expels its worker (a wedged remote cell cannot
   be cancelled individually — same reasoning as the local pool
   recycle) and re-queues the worker's other leases *uncharged*.

Worker registration is a capability handshake: the ``hello`` frame
carries protocol version, slot count, cache backend and trace-cache
availability; a version mismatch is answered with a structured
``reject`` frame (see :mod:`repro.service.wire`), not a traceback.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Optional

from repro.service import wire
from repro.service.executor import (
    AttemptLedger,
    Executor,
    ExecutorConfig,
    ExecutorStats,
)

#: Poll interval for the dispatch/reap/staleness loop (seconds).
_TICK = 0.05


def parse_address(value) -> tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return str(value[0]), int(value[1])
    host, sep, port = str(value).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


class RemoteWorker:
    """One connected worker: its capabilities, leases and liveness."""

    def __init__(
        self,
        name: str,
        conn: socket.socket,
        wfile,
        *,
        slots: int = 1,
        backend: str = "",
        trace_cache: bool = False,
        pid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.conn = conn
        self.wfile = wfile
        self.slots = max(1, int(slots))
        self.backend = backend
        self.trace_cache = bool(trace_cache)
        self.pid = pid
        self.leases: set[str] = set()
        self.last_seen = time.monotonic()
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, frame: dict) -> None:
        """Write one frame; serialised so lease/shutdown sends never tear."""
        with self._send_lock:
            wire.write_frame(self.wfile, frame)

    def drop(self) -> None:
        """Mark dead and sever the connection (reader thread unblocks)."""
        self.alive = False
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class _Lease:
    """One dispatched cell: who is running it and until when."""

    __slots__ = ("cell", "worker", "deadline", "dispatched")

    def __init__(self, cell, worker: RemoteWorker, deadline, dispatched) -> None:
        self.cell = cell
        self.worker = worker
        self.deadline = deadline
        self.dispatched = dispatched


class ClusterExecutor(Executor):
    """Executor backend that leases cells to remote workers over TCP.

    ``listen`` is the coordinator's bind address (``"host:port"``;
    port 0 picks a free one — the bound address is on ``.address``).
    Workers may connect before, during or between drains; a drain with
    no workers connected simply waits for one (or for ``cancel``).
    ``config.jobs`` is ignored — the fleet's width is the sum of
    connected workers' slots.
    """

    kind = "cluster"
    wants_shared_traces = False  # shm cannot cross hosts; workers
    # regenerate traces locally (deterministic, bit-identical).

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        *,
        listen="127.0.0.1:0",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(config)
        host, port = parse_address(listen)
        self.name = name or f"{socket.gethostname()}-coordinator"
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        #: The bound ``(host, port)`` — authoritative when port 0 was asked.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

        self._lock = threading.Lock()
        self._workers: list[RemoteWorker] = []
        self._events: queue.Queue = queue.Queue()
        self._lease_seq = itertools.count(1)
        self._closing = False
        self._leases_active = 0
        self._redispatches = 0
        self._threads: list[threading.Thread] = []

        accept = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)

    # ------------------------------------------------------------------ #
    # Connection handling (accept + per-worker reader threads)
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            reader = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"repro-cluster-conn-{addr[0]}:{addr[1]}",
                daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            frame = wire.read_frame(rfile)
            if frame is None:
                return
            hello = wire.check_frame(frame, expect="hello")
        except wire.WireError as exc:
            # Structured rejection, not a traceback: the worker gets the
            # taxonomy code (protocol_mismatch / bad_request) and reason.
            try:
                wire.write_frame(
                    wfile, wire.make_frame("reject", **wire.error_record(exc))
                )
            except OSError:
                pass
            conn.close()
            return
        except OSError:
            conn.close()
            return
        worker = RemoteWorker(
            str(hello.get("worker") or f"{addr[0]}:{addr[1]}"),
            conn,
            wfile,
            slots=hello.get("slots", 1),
            backend=str(hello.get("backend", "")),
            trace_cache=bool(hello.get("trace_cache", False)),
            pid=hello.get("pid"),
        )
        try:
            worker.send(wire.make_frame("welcome", coordinator=self.name))
        except OSError:
            conn.close()
            return
        with self._lock:
            self._workers.append(worker)
        self._events.put(("joined", worker, None))
        try:
            while worker.alive:
                frame = wire.read_frame(rfile)
                if frame is None:
                    break
                worker.last_seen = time.monotonic()
                kind = frame.get("type")
                if kind == "heartbeat":
                    continue
                if kind in ("result", "error"):
                    self._events.put((kind, worker, frame))
                elif kind == "goodbye":
                    break
        except (wire.WireError, OSError):
            pass
        finally:
            worker.alive = False
            with self._lock:
                if worker in self._workers:
                    self._workers.remove(worker)
            try:
                conn.close()
            except OSError:
                pass
            self._events.put(("left", worker, None))

    # ------------------------------------------------------------------ #
    # Executor protocol
    # ------------------------------------------------------------------ #

    def drain(self, timeout: Optional[float] = None) -> dict:
        buffer = self._take_buffer()
        if not buffer:
            return {}
        effective = self.config.timeout if timeout is None else timeout
        state = AttemptLedger(self, buffer)
        try:
            while (state.pending or state.inflight) and not self._cancelled:
                self._dispatch(state, effective)
                self._pump_events(state)
                self._check_stale(state)
                with self._lock:
                    self._leases_active = len(state.inflight)
        finally:
            with self._lock:
                self._leases_active = 0
        return state.settle(self._cancelled)

    def stats(self) -> ExecutorStats:
        with self._lock:
            return ExecutorStats(
                kind=self.kind,
                workers_connected=sum(1 for w in self._workers if w.alive),
                leases_active=self._leases_active,
                redispatches=self._redispatches,
            )

    def workers(self) -> list[dict]:
        """Capability snapshot of the connected fleet (for logs/UIs)."""
        with self._lock:
            return [
                {
                    "name": w.name,
                    "slots": w.slots,
                    "backend": w.backend,
                    "trace_cache": w.trace_cache,
                    "leases": len(w.leases),
                }
                for w in self._workers
                if w.alive
            ]

    def close(self) -> None:
        self._closing = True
        self._cancelled = True
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.send(wire.make_frame("shutdown"))
            except OSError:
                pass
            worker.drop()
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Drain internals
    # ------------------------------------------------------------------ #

    def _dispatch(self, state: AttemptLedger, effective) -> None:
        """Lease ready cells onto free worker slots (FIFO, like the pool)."""
        while state.pending:
            with self._lock:
                target = next(
                    (
                        w
                        for w in self._workers
                        if w.alive and len(w.leases) < w.slots
                    ),
                    None,
                )
            if target is None:
                return
            now = time.monotonic()
            cell = state.next_ready(now)
            if cell is None:
                return
            lease_id = f"L{next(self._lease_seq)}"
            payload = state.charge(cell, worker=target.name)
            if self._tracer is not None:
                # The lease span nests under this charge's attempt span;
                # a redispatch charges again, so both attempts show in
                # the cell's trace.
                payload["trace"] = state.child_span(
                    cell, "lease", lease=lease_id, worker=target.name
                ).context()
            try:
                target.send(wire.make_frame("lease", lease=lease_id, payload=payload))
            except OSError:
                # Connection died under the send: refund the cell and
                # expel the worker (its other leases requeue uncharged).
                state.refund(cell, "send-failed")
                self._expel(target, state, kind=None)
                continue
            state.started(cell, now)
            deadline = None if effective is None else now + effective
            state.inflight[lease_id] = _Lease(cell, target, deadline, now)
            target.leases.add(lease_id)

    def _pump_events(self, state: AttemptLedger) -> None:
        """Apply queued connection events; blocks at most one tick."""
        try:
            event = self._events.get(timeout=_TICK)
        except queue.Empty:
            return
        while True:
            kind, worker, frame = event
            if kind == "result":
                self._handle_result(state, worker, frame)
            elif kind == "error":
                self._handle_error(state, worker, frame)
            elif kind == "left":
                self._reclaim(worker, state, kind="worker-lost")
            # "joined" needs no action: the next dispatch pass sees it.
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                return

    def _adopt_spans(self, frame: dict) -> None:
        """Ingest worker-side execute spans riding a result/error frame."""
        if self._tracer is None:
            return
        for record in frame.get("spans") or []:
            if isinstance(record, dict):
                self._tracer.adopt(record)

    def _handle_result(
        self, state: AttemptLedger, worker: RemoteWorker, frame: dict
    ) -> None:
        lease = state.inflight.pop(frame.get("lease"), None)
        if lease is None:
            return  # stale: redispatched already, or from a prior drain
        worker.leases.discard(frame.get("lease"))
        self._adopt_spans(frame)
        try:
            result = wire.decode_result(frame["result"])
        except (KeyError, wire.WireError):
            state.fail_or_requeue(lease.cell, "undecodable-result")
            return
        state.deliver(lease.cell, result, lease.dispatched, worker=worker.name)

    def _handle_error(
        self, state: AttemptLedger, worker: RemoteWorker, frame: dict
    ) -> None:
        lease = state.inflight.pop(frame.get("lease"), None)
        if lease is None:
            return
        worker.leases.discard(frame.get("lease"))
        self._adopt_spans(frame)
        state.fail_or_requeue(lease.cell, f"error: {frame.get('error', 'unknown')}")

    def _check_stale(self, state: AttemptLedger) -> None:
        now = time.monotonic()
        # Heartbeat staleness: a worker holding leases but silent past
        # hang_grace is presumed frozen — expel it, charge its leases.
        if self.config.hang_grace is not None:
            with self._lock:
                hung = [
                    w
                    for w in self._workers
                    if w.alive
                    and w.leases
                    and now - w.last_seen > self.config.hang_grace
                ]
            for worker in hung:
                self._expel(worker, state, kind="worker-hung")
        # Per-cell timeout: charge the overdue lease, expel its worker
        # (a wedged remote cell cannot be cancelled individually) and
        # requeue the worker's innocent leases uncharged.
        overdue = [
            (lid, lease)
            for lid, lease in state.inflight.items()
            if lease.deadline is not None and now > lease.deadline
        ]
        for lease_id, lease in overdue:
            if lease_id not in state.inflight:
                continue  # sibling cleanup below already reclaimed it
            del state.inflight[lease_id]
            lease.worker.leases.discard(lease_id)
            state.report.timeouts += 1
            budget = now - lease.dispatched
            state.fail_or_requeue(lease.cell, f"timeout after {budget:.1f}s")
            self._expel(lease.worker, state, kind=None)

    def _reclaim(self, worker: RemoteWorker, state: AttemptLedger, *, kind) -> None:
        """Recover every lease a departed worker held.

        ``kind`` names the failure charged to each lease
        (``worker-lost`` / ``worker-hung``); ``None`` refunds the
        attempt instead (innocent siblings of a timed-out lease).
        """
        held = [
            (lid, lease)
            for lid, lease in list(state.inflight.items())
            if lease.worker is worker
        ]
        for lease_id, lease in held:
            del state.inflight[lease_id]
            worker.leases.discard(lease_id)
            with self._lock:
                self._redispatches += 1
            # The respan site: the ledger closes this attempt's spans
            # with the loss status; the redispatch opens a fresh attempt
            # span under the same cell context, so a kill-mid-lease run
            # shows both attempts stitched into one cell trace.
            if kind is None:
                state.refund(lease.cell)
            else:
                state.fail_or_requeue(lease.cell, kind)

    def _expel(self, worker: RemoteWorker, state: AttemptLedger, *, kind) -> None:
        """Drop a worker's connection and reclaim its leases."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.drop()
        self._reclaim(worker, state, kind=kind)
