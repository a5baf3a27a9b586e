"""The :class:`Executor` protocol, its shared attempt ledger, and the
local process-pool backend.

The :class:`~repro.service.scheduler.BatchScheduler` streams cells to
whatever runs them through:

* :meth:`Executor.submit` — start one ``(cell, payload)`` as soon as a
  slot is free (:meth:`Executor.free_slots`);
* :meth:`Executor.poll` — apply finished attempts, timeouts and
  retries, delivering each result through the bound ``on_result`` and
  each cell that exhausted its retries through ``on_failed``;
* :meth:`Executor.drain` — wait until idle, ending the busy period;
* :meth:`Executor.cancel` — stop at the next cell boundary (the
  ``close(drain=False)`` path).

Every backend keeps its books in one :class:`AttemptLedger` for its
whole lifetime, so retry, backoff, refund, timeout, fault-injection and
queue-latency rules are written once:

* :class:`LocalPoolExecutor` runs cells in-process (``jobs=1`` with no
  timeout) or on one long-lived process pool with per-cell timeouts,
  pool-death respawn and degradation to one cell at a time;
* :class:`~repro.cluster.ClusterExecutor` (see :mod:`repro.cluster`)
  leases the same payloads to worker processes on other hosts over the
  length-prefixed wire protocol.

The scheduler keeps owning everything above execution — dedup, the
priority queue, journal and the run report's file — which
is what makes the acceptance property cheap to state: an executor only
decides *where* a cell simulates, never *what* it computes.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque, namedtuple
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.execution.faults import FaultPlan
from repro.execution.report import RunReport, cell_name

#: Unexpected pool deaths one local busy period survives by respawning;
#: the next one finishes the busy period one cell at a time
#: (``degraded_serial``).
MAX_POOL_DEATHS = 3

#: ``(pid, read_fd, write_fd)`` of this process's parent-death pipe (see
#: :func:`_exit_with_parent`); created on the first pool spawn, held open
#: for the process's lifetime, never written.  One per process, not per
#: pool: a forked worker inherits every write end open in its parent, and
#: it can close only the one it is handed, so two pools with a pipe each
#: would hold each other's workers alive.
_PARENT_PIPE: Optional[tuple[int, int, int]] = None
_PARENT_PIPE_LOCK = threading.Lock()


def _parent_pipe() -> tuple[int, int]:
    """This process's parent-death pipe as ``(read_fd, write_fd)``."""
    global _PARENT_PIPE
    with _PARENT_PIPE_LOCK:
        if _PARENT_PIPE is None or _PARENT_PIPE[0] != os.getpid():
            _PARENT_PIPE = (os.getpid(), *os.pipe())
        return _PARENT_PIPE[1:]


def _exit_with_parent(read_fd: int, write_fd: int) -> None:
    """Pool initializer: end this worker as soon as its parent dies.

    The worker closes its inherited copy of the write end, so the
    parent holds the only one; a daemon thread blocks reading the pipe,
    and the EOF that comes when the parent is gone (``kill -9``
    included) exits the worker at once instead of leaving it orphaned.
    """
    os.close(write_fd)

    def watch() -> None:
        while os.read(read_fd, 1):
            pass
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy shared by every backend.

    ``jobs`` is pool width locally and irrelevant to a cluster, whose
    width is whatever workers connect.  ``timeout`` is the one
    per-attempt wall-clock limit, enforced wherever the attempt runs:
    on the local pool at every ``jobs``, by the lane on a cluster.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class ExecutorStats:
    """One backend's execution counters, folded into the service stats."""

    kind: str = "local"
    #: Live remote workers (0 for the local pool — its workers are
    #: child processes, not registered peers).
    workers_connected: int = 0
    #: Remote worker slots currently holding a lease.
    leases_active: int = 0
    #: Leases lost to worker death/hang and dispatched again.
    redispatches: int = 0


def timeout_kind(seconds: float) -> str:
    """The failure kind of an attempt that overran its ``seconds`` timeout."""
    return f"timeout after {round(seconds, 3):g}s"


#: One dispatched attempt: its cell, deadline, start and worker.
Attempt = namedtuple("Attempt", "cell deadline started worker", defaults=(None,))


class AttemptLedger:
    """A backend's attempt bookkeeping — the charging rules of every backend.

    One ledger lives as long as its backend.  ``pending`` holds
    ``(cell, ready_at)`` pairs in FIFO order; a cell still backing off
    is skipped, not waited on, and the wait from ``ready_at`` to
    dispatch is charged as its queue latency.  ``inflight`` maps the backend's handle
    of each running attempt (a pool future, a lease id) to its
    :class:`Attempt`.  Attempts are charged per dispatch and mirrored
    into the :class:`RunReport`; an attempt that never really ran (its
    pool was recycled for a sibling's fault, its lease never sent) is
    refunded.  A failed attempt is requeued after
    ``backoff * 2^(attempt-1)`` seconds until ``1 + retries`` attempts
    are spent, then the cell goes to ``on_failed``.  A resolved cell
    leaves the ledger.  With tracing on, every charge opens one
    ``attempt`` span under the cell's context, closed with the
    attempt's outcome.
    """

    def __init__(
        self, executor: "Executor", report=None, validate=None, on_result=None, on_failed=None
    ) -> None:
        config = executor.config
        self.report = report if report is not None else RunReport()
        self.retries = max(0, int(config.retries))
        self.backoff = max(0.0, float(config.backoff))
        self.fault_plan = config.fault_plan
        self.kind = executor.kind
        self.tracer = executor._tracer
        self.timeout = config.timeout
        self.validate, self.on_result, self.on_failed = validate, on_result, on_failed
        self.pending: deque = deque()
        #: cell -> payload of every live cell.
        self.cells: dict = {}
        self.attempts: dict = {}
        self.inflight: dict = {}
        #: cell -> open spans of its live attempt, outermost first.
        self.spans: dict = {}

    @property
    def idle(self) -> bool:
        return not self.pending and not self.inflight

    def add(self, cell, payload: dict) -> None:
        """Take a new cell, ready at once."""
        self.cells[cell] = payload
        self.attempts[cell] = 0
        self.report.record(cell)
        self.pending.append((cell, time.monotonic()))

    def next_ready(self, now: float):
        """Pop the first pending cell past its backoff, or ``None``."""
        for _ in range(len(self.pending)):
            cell, ready_at = self.pending[0]
            if now >= ready_at:
                self.pending.popleft()
                self.report.record(cell).queue_seconds += now - ready_at
                return cell
            self.pending.rotate(-1)
        return None

    def ready(self, now: float) -> int:
        """Pending cells past their backoff."""
        return sum(1 for _cell, ready_at in self.pending if now >= ready_at)

    def next_deadline(self, now: float) -> Optional[float]:
        """The earliest backoff expiry or attempt deadline still ahead."""
        times = [t for _cell, t in self.pending if t > now]
        times.extend(a.deadline for a in self.inflight.values() if a.deadline is not None)
        return min(times, default=None)

    def charge(self, cell, **attrs) -> dict:
        """Charge one attempt and return its payload.

        The payload is the submitted one plus the fault the plan injects
        on this attempt, if any.  With tracing on, the charge opens the
        attempt's span, carrying ``attrs``.
        """
        self.attempts[cell] += 1
        self.report.record(cell).attempts += 1
        attempt = self.attempts[cell]
        submitted = self.cells[cell]
        payload = dict(submitted)
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(cell, attempt)
            if fault is not None:
                payload["fault"] = fault.as_payload()
        if self.tracer is not None:
            span = self.tracer.begin(
                "attempt",
                submitted.get("trace"),
                cell=cell_name(cell),
                attempt=attempt,
                executor=self.kind,
                **attrs,
            )
            self.spans[cell] = [span]
        return payload

    def child_span(self, cell, name: str, **attrs):
        """Open a span under the cell's live attempt; it closes with it."""
        stack = self.spans[cell]
        span = self.tracer.begin(name, stack[-1], **attrs)
        stack.append(span)
        return span

    def start(self, key, cell, now: float, worker=None, timed: bool = True) -> None:
        """Track an attempt dispatched at ``now`` under the backend's ``key``;
        ``timed=False`` arms no deadline (a cluster worker enforces it)."""
        deadline = None if self.timeout is None or not timed else now + self.timeout
        self.inflight[key] = Attempt(cell, deadline, now, worker)

    def overdue(self, now: float) -> list:
        """Keys of in-flight attempts past the timeout."""
        return [
            key
            for key, attempt in self.inflight.items()
            if attempt.deadline is not None and now > attempt.deadline
        ]

    def refund(self, cell, status: str = "requeued") -> None:
        """Refund an attempt that never really ran; requeue at once."""
        self.attempts[cell] -= 1
        self.report.record(cell).attempts -= 1
        self._close_spans(cell, status)
        self.pending.append((cell, time.monotonic()))

    def time_out(self, key) -> None:
        """Charge the in-flight attempt ``key`` for overrunning the timeout."""
        self.fail_or_requeue(self.inflight.pop(key).cell, timeout_kind(self.timeout))

    def fail_or_requeue(self, cell, kind: str) -> None:
        """Record a failed attempt; requeue with backoff or fail the cell.

        The attempt's spans close with the kind's first word
        (``error: ...`` → ``error``, ``timeout after 2s`` → ``timeout``),
        and a timeout counts in the report's ``timeouts`` whichever
        backend enforced it.
        """
        status = kind.split(":")[0].split(" ")[0]
        self._close_spans(cell, status)
        if status == "timeout":
            self.report.timeouts += 1
        rec = self.report.record(cell)
        rec.errors.append(kind)
        if self.attempts[cell] >= 1 + self.retries:
            rec.status = "failed"
            self._forget(cell)
            if self.on_failed is not None:
                self.on_failed(cell, kind)
            return
        self.report.retried += 1
        # The cell only becomes *ready* once its backoff elapses.
        self.pending.append(
            (cell, time.monotonic() + self.backoff * 2 ** (self.attempts[cell] - 1))
        )

    def deliver(self, cell, result, started: float, worker: str = "") -> bool:
        """Validate, then record and deliver a result; False if rejected."""
        if self.validate is not None and not self.validate(result):
            self.fail_or_requeue(cell, "invalid-result")
            return False
        self._close_spans(cell, "ok")
        self._forget(cell)
        self.report.mark_ok(cell, time.monotonic() - started)
        if worker:
            self.report.record(cell).worker = worker
        if self.on_result is not None:
            self.on_result(cell, result)
        return True

    def abandon(self) -> None:
        """Drop every live cell (the cancel path); the report keeps them
        pending and their open spans close ``interrupted``."""
        for cell in list(self.spans):
            self._close_spans(cell, "interrupted")
        for table in (self.pending, self.cells, self.attempts, self.inflight):
            table.clear()

    def _forget(self, cell) -> None:
        self.cells.pop(cell, None)
        self.attempts.pop(cell, None)

    def _close_spans(self, cell, status: str) -> None:
        for span in reversed(self.spans.pop(cell, ())):
            self.tracer.finish(span, status=status)


class Executor:
    """Abstract execution backend for the batch scheduler.

    Lifecycle: construct → :meth:`bind` once (the scheduler wires in its
    worker callable, completion callbacks and wake-up condition) → any
    number of :meth:`submit` calls, with :meth:`poll` run whenever
    ``wakeup`` is notified or the deadline it returned passes →
    :meth:`close`.  A pool future's done-callback or a cluster reader
    thread only calls :meth:`notify`; :meth:`poll` applies the work on
    the driving thread, so the ledger has one writer.  :meth:`cancel`
    may arrive from another thread at any point: the backend abandons
    its live cells at the next cell boundary, leaving them pending in
    the report.
    """

    kind = "abstract"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        self.config = config if config is not None else ExecutorConfig()
        self.ledger: Optional[AttemptLedger] = None
        self.cancelled = False
        #: Set under ``wakeup`` by every event :meth:`poll` must apply;
        #: cleared when a poll starts, so a waiter that sees it unset
        #: under the lock cannot miss a completion.
        self.signalled = False
        self.wakeup = threading.Condition()
        self._worker: Optional[Callable] = None
        self._tracer = None

    def bind(
        self,
        *,
        worker: Callable,
        validate: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        on_failed: Optional[Callable] = None,
        report: Optional[RunReport] = None,
        tracer=None,
        wakeup: Optional[threading.Condition] = None,
    ) -> "Executor":
        """Wire in the scheduler's worker callable and result plumbing.

        ``on_result(cell, result)`` receives every result,
        ``on_failed(cell, kind)`` every cell that exhausted its retries.
        ``wakeup`` is the condition the driving loop waits on (the
        scheduler's own; a private one by default).  ``tracer`` is the
        scheduler's :class:`~repro.obs.spans.SpanTracer` or ``None``;
        backends emit attempt/lease spans only when set.
        """
        self._worker = worker
        self._tracer = tracer
        if wakeup is not None:
            self.wakeup = wakeup
        self.ledger = AttemptLedger(self, report, validate, on_result, on_failed)
        return self

    # -- the protocol --------------------------------------------------- #

    def submit(self, cell, payload: dict) -> None:
        """Start one cell as soon as a slot is free; ``config.timeout``
        bounds each of its attempts."""
        if self.ledger is None:
            raise RuntimeError("executor is not bound; call bind() first")
        self.ledger.add(cell, payload)
        self._dispatch()

    def free_slots(self) -> int:
        """Cells that would start now, after the ledger's ready retries."""
        ledger = self.ledger
        return self.capacity() - len(ledger.inflight) - ledger.ready(time.monotonic())

    def poll(self) -> Optional[float]:
        """Apply completions, timeouts and ready retries; return the
        seconds until the next deadline (a backoff expiry, a cell
        timeout or a heartbeat check), ``None`` if only a :meth:`notify` can
        change anything."""
        self.signalled = False
        if self.cancelled:
            self.ledger.abandon()  # close() kills what still runs
            return None
        self._collect()
        self._dispatch()
        now = time.monotonic()
        deadline = self._next_deadline(now)
        return None if deadline is None else max(0.0, deadline - now)

    def drain(self) -> None:
        """Wait until idle: the busy period ends."""
        while True:
            wait = self.poll()
            if self.ledger.idle:
                return
            with self.wakeup:
                if not self.signalled:
                    self.wakeup.wait(wait)

    def notify(self) -> None:
        """Wake the driving loop: :meth:`poll` has work to apply."""
        with self.wakeup:
            self.signalled = True
            self.wakeup.notify_all()

    def cancel(self) -> None:
        """Abandon live cells at the next cell boundary; start no more."""
        self.cancelled = True
        self.notify()

    def stats(self) -> ExecutorStats:
        return ExecutorStats(kind=self.kind)

    def close(self) -> None:
        """Release backend resources (listeners, connections, pools)."""

    # -- backend hooks -------------------------------------------------- #

    def capacity(self) -> int:
        """Cells the backend can run at once."""
        raise NotImplementedError

    def _dispatch(self) -> None:
        """Start ready pending cells on free slots."""
        raise NotImplementedError

    def _collect(self) -> None:
        """Apply finished attempts, timeouts and lost workers."""
        raise NotImplementedError

    def _next_deadline(self, now: float) -> Optional[float]:
        return self.ledger.next_deadline(now)


class LocalPoolExecutor(Executor):
    """Runs cells on this host: on a pool of ``jobs`` workers, or
    in-process for ``jobs=1`` with no timeout.

    One :class:`~concurrent.futures.ProcessPoolExecutor` serves the
    executor's lifetime; it is replaced only by a timeout recycle or a
    pool death, and an untimed ``jobs=1`` never imports it.  In-process
    execution could enforce no timeout — there is no second process to
    kill — so a timeout puts even ``jobs=1`` on a one-worker pool.  The
    pool mode adds:

    * a per-cell timeout: the overdue cell is charged ``timeout`` and
      the pool recycled (a hung worker cannot be cancelled alone), its
      innocent in-flight siblings refunded and resubmitted;
    * pool-death recovery: a broken pool charges every in-flight cell
      ``pool-death`` and is respawned; past :data:`MAX_POOL_DEATHS`
      deaths in one busy period the rest of it runs one cell at a time:
      in-process, or on a one-worker pool while a timeout needs one;
    * workers that exit with their parent: forked workers watch a pipe
      only the parent holds open (see :func:`_exit_with_parent`), so a
      hard-killed batch or server leaves no orphaned pool behind.
    """

    kind = "local"

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        super().__init__(config)
        self._pool = None
        self._deaths = 0
        self._serial = False

    def capacity(self) -> int:
        return 1 if self._serial else max(1, self.config.jobs)

    def _dispatch(self) -> None:
        ledger = self.ledger
        while not self.cancelled and len(ledger.inflight) < self.capacity():
            now = time.monotonic()
            cell = ledger.next_ready(now)
            if cell is None:
                return
            payload = ledger.charge(cell)
            # One cell at a time (jobs=1, or degraded) runs in-process
            # unless a timeout needs a second process to kill.
            if self.capacity() == 1 and self.config.timeout is None:
                self._run_in_process(cell, payload, now)
                continue
            pool = self._spawn()
            try:
                future = pool.submit(self._worker, payload)
            except BrokenExecutor:
                ledger.refund(cell)
                self._recycle(death=True)
                continue
            ledger.start(future, cell, now)
            future.add_done_callback(lambda _future: self.notify())

    def _run_in_process(self, cell, payload: dict, now: float) -> None:
        if "fault" in payload:
            payload["fault_in_process"] = True
        try:
            _, result = self._worker(payload)
        except Exception as exc:
            self.ledger.fail_or_requeue(cell, f"error: {exc!r}")
        else:
            self.ledger.deliver(cell, result, now)

    def _collect(self) -> None:
        ledger = self.ledger
        death = False
        for future in [f for f in ledger.inflight if f.done()]:
            attempt = ledger.inflight.pop(future)
            try:
                _, result = future.result()
            except BrokenExecutor:
                death = True
                ledger.fail_or_requeue(attempt.cell, "pool-death")
            except Exception as exc:
                ledger.fail_or_requeue(attempt.cell, f"error: {exc!r}")
            else:
                ledger.deliver(attempt.cell, result, attempt.started)
        overdue = ledger.overdue(time.monotonic())
        for future in overdue:
            ledger.time_out(future)
        if death or overdue:
            self._recycle(death)

    def _recycle(self, death: bool) -> None:
        """Kill the pool, refunding its innocent in-flight cells."""
        ledger = self.ledger
        for attempt in ledger.inflight.values():
            ledger.refund(attempt.cell)
        ledger.inflight.clear()
        self._kill()
        if death:
            ledger.report.pool_deaths += 1
            self._deaths += 1
            if self._deaths > MAX_POOL_DEATHS:
                ledger.report.degraded_serial = True
                self._serial = True

    def drain(self) -> None:
        super().drain()
        self._deaths = 0  # the death budget is per busy period
        self._serial = False

    def _spawn(self):
        """The live pool, spawned on first use."""
        if self._pool is None:
            # Imported here: an in-process executor never loads them.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context()
            options = {}
            if context.get_start_method() == "fork":
                # Only forked workers inherit the pipe's descriptors.
                options = {"initializer": _exit_with_parent, "initargs": _parent_pipe()}
            self._pool = ProcessPoolExecutor(
                max_workers=self.capacity(), mp_context=context, **options
            )
        return self._pool

    def _kill(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # Grab worker handles before shutdown clears them; terminate
            # so hung workers (sleeping past their timeout) die at once.
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()

    def close(self) -> None:
        if self._pool is not None and not self.cancelled and self.ledger.idle:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._kill()


def make_executor(
    executor: str, config: Optional[ExecutorConfig] = None, **options
) -> Executor:
    """Resolve the scheduler's ``executor=`` kind to a backend.

    ``"local"`` → :class:`LocalPoolExecutor`, ``"cluster"`` →
    :class:`~repro.cluster.ClusterExecutor` (imported lazily so the
    service works without the cluster tier loaded).  ``options`` are
    backend-specific constructor kwargs — e.g. ``listen="host:port"``
    for the cluster coordinator.
    """
    if executor == "local":
        if options:
            raise TypeError(
                f"local executor takes no options, got {sorted(options)}"
            )
        return LocalPoolExecutor(config)
    if executor == "cluster":
        from repro.cluster import ClusterExecutor

        return ClusterExecutor(config, **options)
    raise ValueError(
        f"unknown executor {executor!r}; expected 'local' or 'cluster'"
    )
