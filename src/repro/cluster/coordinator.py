"""Cluster coordinator: lease-based dispatch to remote workers.

:class:`ClusterExecutor` implements the
:class:`~repro.service.executor.Executor` protocol over a fleet of
:class:`~repro.cluster.worker.WorkerClient` processes instead of a
local process pool.  The scheduler above it is unchanged — dedup,
journal and admission all happen before a cell reaches this module,
and results flow back through the same ``on_result`` callback the
local pool uses.

Life of a cell here:

1. ``submit`` queues ``(spec, payload)`` on the executor's
   :class:`~repro.service.executor.AttemptLedger` — the same one the
   local pool keeps, so retry, refund, timeout and fault-injection
   rules are identical.
2. Dispatch charges an attempt and sends a ``lease`` frame to a worker
   with a free slot, at once if one is free.
   The frame carries the cell's timeout, which the worker enforces
   with the local executor's rule: the coordinator arms no lease
   deadline of its own.
3. The worker streams back a ``result`` or ``error`` frame; its reader
   thread queues the frame and wakes the scheduler's loop, whose
   :meth:`~ClusterExecutor.poll` validates and delivers results and
   charges an ``error`` frame's kind (``error: ...``, ``timeout after
   Ns``, ``pool-death``) exactly as the local ledger would, retrying
   with exponential backoff up to the configured budget.
4. Leases are *recovered*, never lost: a worker whose connection dies
   charges its leases one ``worker-lost`` attempt and re-queues them;
   a worker silent past ``hang_grace`` (heartbeats stale) is expelled
   the same way as ``worker-hung``.

Worker registration is a capability handshake: the ``hello`` frame
carries protocol version, slot count, cache backend and trace-cache
availability; a version mismatch is answered with a structured
``reject`` frame (see :mod:`repro.service.wire`), not a traceback.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import Optional

from repro.service import wire
from repro.service.executor import Executor, ExecutorConfig, ExecutorStats


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


class ClusterExecutor(Executor):
    """Executor backend that leases cells to remote workers over TCP.

    ``listen`` is the coordinator's bind address (``"host:port"``;
    port 0 picks a free one — the bound address is on ``.address``).
    Workers may connect at any time; with none connected,
    :meth:`free_slots` is zero and submitted cells wait for one (or for
    ``cancel``).  ``config.jobs`` is ignored — the fleet's width is the
    sum of connected workers' slots.
    """

    kind = "cluster"

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
        #: Reader-thread events for :meth:`poll`: ``(kind, worker, frame)``.
        self._events: deque = deque()
        self._lease_seq = itertools.count(1)
        self._closing = False
        self._redispatches = 0

        threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        ).start()

    # ------------------------------------------------------------------ #
    # Connection handling (accept + per-worker reader threads)
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"repro-cluster-conn-{addr[0]}:{addr[1]}",
                daemon=True,
            ).start()

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
        self._post("joined", worker)
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
                    self._post(kind, worker, frame)
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
            self._post("left", worker)

    def _post(self, kind: str, worker: RemoteWorker, frame=None) -> None:
        self._events.append((kind, worker, frame))
        self.notify()

    # ------------------------------------------------------------------ #
    # Executor protocol
    # ------------------------------------------------------------------ #

    def capacity(self) -> int:
        with self._lock:
            return sum(w.slots for w in self._workers if w.alive)

    def stats(self) -> ExecutorStats:
        with self._lock:
            return ExecutorStats(
                kind=self.kind,
                workers_connected=sum(1 for w in self._workers if w.alive),
                leases_active=sum(len(w.leases) for w in self._workers if w.alive),
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
                    "pid": w.pid,
                    "leases": len(w.leases),
                }
                for w in self._workers
                if w.alive
            ]

    def close(self) -> None:
        self._closing = True
        self.cancelled = True
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.send(wire.make_frame("shutdown"))
            except OSError:
                pass
            worker.drop()
        # Shut down before closing: a close alone leaves the accept
        # thread blocked on the old socket, and once the fd number is
        # reused by a new listener, that thread would accept for it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Dispatch and completion (driven by poll)
    # ------------------------------------------------------------------ #

    def _dispatch(self) -> None:
        """Lease ready cells onto free worker slots (FIFO, like the pool)."""
        ledger = self.ledger
        while ledger.pending and not self.cancelled:
            with self._lock:
                free = [w for w in self._workers if w.alive and len(w.leases) < w.slots]
            if not free:
                return
            target = free[0]
            now = time.monotonic()
            cell = ledger.next_ready(now)
            if cell is None:
                return
            lease_id = f"L{next(self._lease_seq)}"
            payload = ledger.charge(cell, worker=target.name)
            if self._tracer is not None:
                # The lease span nests under this charge's attempt span;
                # a redispatch charges again, so both attempts show in
                # the cell's trace.
                payload["trace"] = ledger.child_span(
                    cell, "lease", lease=lease_id, worker=target.name
                ).context()
            frame = wire.make_frame(
                "lease", lease=lease_id, payload=payload, timeout=ledger.cells[cell][1]
            )
            try:
                target.send(frame)
            except OSError:
                # Connection died under the send: refund the cell and
                # expel the worker (its other leases requeue uncharged).
                ledger.refund(cell, "send-failed")
                self._expel(target, kind=None)
                continue
            ledger.start(lease_id, cell, now, worker=target, timed=False)
            target.leases.add(lease_id)

    def _collect(self) -> None:
        """Apply queued connection events, then the staleness checks."""
        while self._events:
            kind, worker, frame = self._events.popleft()
            if kind in ("result", "error"):
                self._handle_outcome(worker, frame)
            elif kind == "left":
                self._reclaim(worker, kind="worker-lost")
            # "joined" needs no action: the next dispatch pass sees it.
        self._check_stale()

    def _next_deadline(self, now: float) -> Optional[float]:
        """The ledger's next backoff expiry, or the next heartbeat check."""
        deadline = self.ledger.next_deadline(now)
        grace = self.config.hang_grace
        if grace is not None:
            with self._lock:
                seen = [w.last_seen for w in self._workers if w.alive and w.leases]
            if seen:
                hang = min(seen) + grace
                deadline = hang if deadline is None else min(deadline, hang)
        return deadline

    def _handle_outcome(self, worker: RemoteWorker, frame: dict) -> None:
        lease_id = frame.get("lease")
        attempt = self.ledger.inflight.pop(lease_id, None)
        if attempt is None:
            return  # stale: redispatched already
        worker.leases.discard(lease_id)
        if self._tracer is not None:
            # Worker-side execute spans ride the frame home.
            for record in frame.get("spans") or []:
                if isinstance(record, dict):
                    self._tracer.adopt(record)
        if frame.get("type") == "error":
            self.ledger.fail_or_requeue(attempt.cell, str(frame.get("error", "error")))
            return
        try:
            result = wire.decode_result(frame["result"])
        except (KeyError, wire.WireError):
            self.ledger.fail_or_requeue(attempt.cell, "undecodable-result")
            return
        self.ledger.deliver(attempt.cell, result, attempt.started, worker=worker.name)

    def _check_stale(self) -> None:
        """Expel every worker holding leases but silent past
        ``hang_grace`` — presumed frozen — charging its leases."""
        grace = self.config.hang_grace
        if grace is None:
            return
        now = time.monotonic()
        with self._lock:
            hung = [
                w
                for w in self._workers
                if w.alive and w.leases and now - w.last_seen > grace
            ]
        for worker in hung:
            self._expel(worker, kind="worker-hung")

    def _reclaim(self, worker: RemoteWorker, *, kind) -> None:
        """Recover every lease a departed worker held.

        ``kind`` names the failure charged to each lease
        (``worker-lost`` / ``worker-hung``); ``None`` refunds the
        attempt instead (leases of a worker whose send failed).
        """
        ledger = self.ledger
        held = [
            (lid, attempt)
            for lid, attempt in list(ledger.inflight.items())
            if attempt.worker is worker
        ]
        for lease_id, attempt in held:
            del ledger.inflight[lease_id]
            worker.leases.discard(lease_id)
            with self._lock:
                self._redispatches += 1
            # The respan site: the ledger closes this attempt's spans
            # with the loss status; the redispatch opens a fresh attempt
            # span under the same cell context, so a kill-mid-lease run
            # shows both attempts stitched into one cell trace.
            if kind is None:
                ledger.refund(attempt.cell)
            else:
                ledger.fail_or_requeue(attempt.cell, kind)

    def _expel(self, worker: RemoteWorker, *, kind) -> None:
        """Drop a worker's connection and reclaim its leases."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.drop()
        self._reclaim(worker, kind=kind)
