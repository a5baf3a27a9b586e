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
2. Dispatch charges an attempt, resolves any injected fault for that
   attempt (exactly like the local Supervisor, so chaos plans cover
   the cluster path too) and sends a ``lease`` frame to a worker with
   a free slot.
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
import sys
import threading
import time
from collections import deque
from typing import Optional

from repro.experiments.supervision import RunReport, cell_name
from repro.service import wire
from repro.service.executor import (
    Executor,
    ExecutorConfig,
    ExecutorError,
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

    __slots__ = ("cell", "worker", "deadline", "dispatched", "span", "attempt_span")

    def __init__(
        self,
        cell,
        worker: RemoteWorker,
        deadline,
        dispatched,
        span=None,
        attempt_span=None,
    ) -> None:
        self.cell = cell
        self.worker = worker
        self.deadline = deadline
        self.dispatched = dispatched
        self.span = span  # live "lease" span (tracing on only)
        self.attempt_span = attempt_span  # its parent "attempt" span


class _Drain:
    """Per-drain bookkeeping, mirroring the Supervisor's charging rules."""

    def __init__(self, buffer: dict, report: RunReport, retries: int, backoff: float):
        self.buffer = buffer
        self.report = report
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.pending: deque = deque((cell, 0.0) for cell in buffer)
        ready = time.monotonic()
        self.enqueued = {cell: ready for cell in buffer}
        self.attempts = {cell: 0 for cell in buffer}
        self.leases: dict[str, _Lease] = {}
        self.results: dict = {}
        self.failed: dict = {}
        for cell in buffer:
            report.record(cell)

    def charge(self, cell) -> int:
        self.attempts[cell] += 1
        self.report.record(cell).attempts += 1
        return self.attempts[cell]

    def uncharge(self, cell) -> None:
        """Refund an attempt that never really ran (worker expelled)."""
        self.attempts[cell] -= 1
        self.report.record(cell).attempts -= 1

    def register_failure(self, cell, kind: str) -> bool:
        """Record a failed attempt; True if the cell has retries left."""
        rec = self.report.record(cell)
        rec.errors.append(kind)
        if self.attempts[cell] >= 1 + self.retries:
            rec.status = "failed"
            self.failed[cell] = kind
            return False
        self.report.retried += 1
        return True

    def fail_or_requeue(self, cell, kind: str) -> None:
        if self.register_failure(cell, kind):
            not_before = time.monotonic() + self.backoff * (
                2 ** max(0, self.attempts[cell] - 1)
            )
            self.pending.append((cell, not_before))
            self.enqueued[cell] = not_before

    def requeue_uncharged(self, cell) -> None:
        self.uncharge(cell)
        self.pending.append((cell, 0.0))
        self.enqueued[cell] = time.monotonic()


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
        self._buffer: dict = {}
        self._cancelled = False
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

    def submit(self, cell, payload: dict) -> None:
        self._buffer[cell] = payload

    def drain(self, timeout: Optional[float] = None) -> dict:
        if self._worker is None:
            raise RuntimeError("executor is not bound; call bind() first")
        buffer, self._buffer = self._buffer, {}
        if not buffer:
            return {}
        report = self._report if self._report is not None else RunReport()
        effective = self.config.timeout if timeout is None else timeout
        state = _Drain(buffer, report, self.config.retries, self.config.backoff)
        if self.config.fault_plan is not None:
            self.config.fault_plan.bind(list(buffer))
        try:
            while (state.pending or state.leases) and not self._cancelled:
                self._dispatch(state, effective)
                self._pump_events(state)
                self._check_stale(state)
                with self._lock:
                    self._leases_active = len(state.leases)
        finally:
            with self._lock:
                self._leases_active = 0
            report.interrupted = self._cancelled
            report.finalize()
            if self._report_path is not None:
                report.write(self._report_path)
        if self._cancelled:
            print(report.summary(), file=sys.stderr)
            raise KeyboardInterrupt
        if state.failed:
            raise ExecutorError(state.failed, report)
        return dict(state.results)

    def cancel(self) -> None:
        self._cancelled = True

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

    def _dispatch(self, state: _Drain, effective) -> None:
        """Lease ready cells onto free worker slots (FIFO, like the pool)."""
        rotations = 0
        while state.pending and rotations <= len(state.pending):
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
            cell, not_before = state.pending[0]
            if now < not_before:  # still backing off; look at the next one
                state.pending.rotate(-1)
                rotations += 1
                continue
            state.pending.popleft()
            attempt = state.charge(cell)
            payload = dict(state.buffer[cell])
            if self.config.fault_plan is not None:
                fault = self.config.fault_plan.fault_for(cell, attempt)
                if fault is not None:
                    payload["fault"] = fault.as_payload()
            lease_id = f"L{next(self._lease_seq)}"
            attempt_span = lease_span = None
            if self._tracer is not None:
                # One attempt span per charge — a redispatch after a
                # worker loss creates a fresh one under the same cell
                # context, so both attempts show in the cell's trace.
                attempt_span = self._tracer.begin(
                    "attempt",
                    state.buffer[cell].get("trace"),
                    cell=cell_name(cell),
                    attempt=attempt,
                    worker=target.name,
                    executor="cluster",
                )
                lease_span = self._tracer.begin(
                    "lease", attempt_span, lease=lease_id, worker=target.name
                )
                payload["trace"] = lease_span.context()
            try:
                target.send(wire.make_frame("lease", lease=lease_id, payload=payload))
            except OSError:
                # Connection died under the send: refund the cell and
                # expel the worker (its other leases requeue uncharged).
                if self._tracer is not None:
                    self._tracer.finish(lease_span, status="send-failed")
                    self._tracer.finish(attempt_span, status="send-failed")
                state.requeue_uncharged(cell)
                self._expel(target, state, kind=None)
                continue
            state.report.record(cell).queue_seconds += max(
                0.0, now - state.enqueued.pop(cell, now)
            )
            deadline = None if effective is None else now + effective
            state.leases[lease_id] = _Lease(
                cell, target, deadline, now, lease_span, attempt_span
            )
            target.leases.add(lease_id)

    def _pump_events(self, state: _Drain) -> None:
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

    def _finish_lease_spans(self, lease: _Lease, status: str, **attrs) -> None:
        if self._tracer is None:
            return
        if lease.span is not None:
            self._tracer.finish(lease.span, status=status, **attrs)
        if lease.attempt_span is not None:
            self._tracer.finish(lease.attempt_span, status=status)

    def _handle_result(self, state: _Drain, worker: RemoteWorker, frame: dict) -> None:
        lease = state.leases.pop(frame.get("lease"), None)
        if lease is None:
            return  # stale: redispatched already, or from a prior drain
        worker.leases.discard(frame.get("lease"))
        self._adopt_spans(frame)
        try:
            result = wire.decode_result(frame["result"])
        except (KeyError, wire.WireError):
            self._finish_lease_spans(lease, "undecodable-result")
            state.fail_or_requeue(lease.cell, "undecodable-result")
            return
        duration = time.monotonic() - lease.dispatched
        if self._validate is not None and not self._validate(result):
            self._finish_lease_spans(lease, "invalid-result")
            state.fail_or_requeue(lease.cell, "invalid-result")
            return
        self._finish_lease_spans(lease, "ok")
        state.results[lease.cell] = result
        state.report.mark_ok(lease.cell, duration)
        state.report.record(lease.cell).worker = worker.name
        if self._on_result is not None:
            self._on_result(lease.cell, result)

    def _handle_error(self, state: _Drain, worker: RemoteWorker, frame: dict) -> None:
        lease = state.leases.pop(frame.get("lease"), None)
        if lease is None:
            return
        worker.leases.discard(frame.get("lease"))
        self._adopt_spans(frame)
        self._finish_lease_spans(lease, "error")
        state.fail_or_requeue(lease.cell, f"error: {frame.get('error', 'unknown')}")

    def _check_stale(self, state: _Drain) -> None:
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
            for lid, lease in state.leases.items()
            if lease.deadline is not None and now > lease.deadline
        ]
        for lease_id, lease in overdue:
            if lease_id not in state.leases:
                continue  # sibling cleanup below already reclaimed it
            del state.leases[lease_id]
            lease.worker.leases.discard(lease_id)
            state.report.timeouts += 1
            budget = now - lease.dispatched
            self._finish_lease_spans(lease, "timeout")
            state.fail_or_requeue(lease.cell, f"timeout after {budget:.1f}s")
            self._expel(lease.worker, state, kind=None)

    def _reclaim(self, worker: RemoteWorker, state: _Drain, *, kind) -> None:
        """Recover every lease a departed worker held.

        ``kind`` names the failure charged to each lease
        (``worker-lost`` / ``worker-hung``); ``None`` refunds the
        attempt instead (innocent siblings of a timed-out lease).
        """
        held = [
            (lid, lease)
            for lid, lease in list(state.leases.items())
            if lease.worker is worker
        ]
        for lease_id, lease in held:
            del state.leases[lease_id]
            worker.leases.discard(lease_id)
            with self._lock:
                self._redispatches += 1
            # The respan site: this attempt's spans end with the loss
            # status; the redispatch creates a fresh attempt span under
            # the same cell context, so a kill-mid-lease run shows both
            # attempts stitched into one cell trace.
            self._finish_lease_spans(lease, kind or "requeued")
            if kind is None:
                state.requeue_uncharged(lease.cell)
            else:
                state.fail_or_requeue(lease.cell, kind)

    def _expel(self, worker: RemoteWorker, state: _Drain, *, kind) -> None:
        """Drop a worker's connection and reclaim its leases."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.drop()
        self._reclaim(worker, state, kind=kind)
