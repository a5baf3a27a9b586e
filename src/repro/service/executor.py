"""The :class:`Executor` protocol, its shared attempt ledger, and the
local process-pool backend.

The :class:`~repro.service.scheduler.BatchScheduler` needs four things
from whatever runs its cells:

* :meth:`Executor.submit` — buffer one ``(spec, payload)`` for the next
  drain;
* :meth:`Executor.drain` — execute everything buffered, delivering each
  result through the bound ``on_result`` callback the moment it exists,
  and raise :class:`~repro.execution.report.ExecutorError` for specs
  that exhausted retries;
* :meth:`Executor.cancel` — stop at the next cell boundary (the
  ``close(drain=False)`` path);
* :meth:`Executor.stats` — a :class:`ExecutorStats` snapshot folded
  into the service's metrics.

Every backend keeps its books in one :class:`AttemptLedger` per drain,
so retry, backoff, refund, fault-injection and queue-latency rules are
written once:

* :class:`LocalPoolExecutor` runs cells in-process (``jobs=1``) or on a
  process pool with per-cell timeouts, pool-death respawn, a heartbeat
  watchdog and degradation to in-process execution;
* :class:`~repro.cluster.ClusterExecutor` (see :mod:`repro.cluster`)
  leases the same payloads to worker processes on other hosts over the
  length-prefixed wire protocol.

The scheduler keeps owning everything above execution — dedup, the
priority queue, journal, admission, breaker, deadlines and the run
report's file — which is what makes the acceptance property cheap to
state: an executor only decides *where* a cell simulates, never *what*
it computes.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional

from repro.execution.faults import FaultPlan
from repro.execution.report import ExecutorError, RunReport, cell_name

#: Poll interval for the pool's completion/timeout/cancel checks (seconds).
_TICK = 0.05

#: Unexpected pool deaths one local drain survives by respawning; the
#: next one finishes the drain in-process (``degraded_serial``).
MAX_POOL_DEATHS = 3


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution policy shared by every backend.

    ``jobs`` is pool width locally and irrelevant to a cluster, whose
    width is whatever workers connect; ``hang_grace`` arms the local
    heartbeat watchdog or the remote-lease staleness check.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    hang_grace: Optional[float] = None
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


class AttemptLedger:
    """One drain's attempt bookkeeping — the charging rules of every backend.

    ``pending`` holds ``(cell, not_before)`` pairs in FIFO order; a cell
    still backing off is skipped, not waited on.  ``inflight`` is the
    backend's own map of running attempts (futures locally, leases on a
    cluster).  Attempts are charged per dispatch and mirrored into the
    :class:`RunReport`; an attempt that never really ran (its pool was
    recycled, its worker expelled for a sibling's fault) is refunded.
    A failed attempt is requeued after ``backoff * 2^(attempt-1)``
    seconds until ``1 + retries`` attempts are spent, then the cell is
    failed.  With tracing on, every charge opens one ``attempt`` span
    under the cell's context, closed with the attempt's outcome.
    """

    def __init__(self, executor: "Executor", buffer: dict) -> None:
        config = executor.config
        self.buffer = buffer
        self.report = executor._report if executor._report is not None else RunReport()
        self.retries = max(0, int(config.retries))
        self.backoff = max(0.0, float(config.backoff))
        self.fault_plan = config.fault_plan
        self.validate = executor._validate
        self.on_result = executor._on_result
        self.tracer = executor._tracer
        self.kind = executor.kind
        ready = time.monotonic()
        self.pending: deque = deque((cell, 0.0) for cell in buffer)
        #: cell -> instant it last became ready; the gap to dispatch is
        #: charged as the cell's queue latency.
        self.enqueued = dict.fromkeys(buffer, ready)
        self.attempts = dict.fromkeys(buffer, 0)
        self.inflight: dict = {}
        self.results: dict = {}
        self.failed: dict = {}
        #: cell -> open spans of its live attempt, outermost first.
        self.spans: dict = {}
        for cell in buffer:
            self.report.record(cell)
        if self.fault_plan is not None:
            self.fault_plan.bind(list(buffer))

    def next_ready(self, now: float):
        """Pop the first pending cell past its backoff, or ``None``."""
        for _ in range(len(self.pending)):
            cell, not_before = self.pending[0]
            if now >= not_before:
                self.pending.popleft()
                return cell
            self.pending.rotate(-1)
        return None

    def charge(self, cell, **attrs) -> dict:
        """Charge one attempt and return its payload.

        The payload is the buffered one plus the fault the plan injects
        on this attempt, if any.  With tracing on, the charge opens the
        attempt's span, carrying ``attrs``.
        """
        self.attempts[cell] += 1
        self.report.record(cell).attempts += 1
        attempt = self.attempts[cell]
        payload = dict(self.buffer[cell])
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(cell, attempt)
            if fault is not None:
                payload["fault"] = fault.as_payload()
        if self.tracer is not None:
            span = self.tracer.begin(
                "attempt",
                self.buffer[cell].get("trace"),
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

    def started(self, cell, now: float) -> None:
        """The attempt was dispatched at ``now``: charge its queue wait."""
        self.report.record(cell).queue_seconds += max(
            0.0, now - self.enqueued.pop(cell, now)
        )

    def refund(self, cell, status: str = "requeued") -> None:
        """Refund an attempt that never really ran; requeue at once."""
        self.attempts[cell] -= 1
        self.report.record(cell).attempts -= 1
        self._close_spans(cell, status)
        self.pending.append((cell, 0.0))
        self.enqueued[cell] = time.monotonic()

    def fail_or_requeue(self, cell, kind: str) -> None:
        """Record a failed attempt; requeue with backoff or fail the cell.

        The attempt's spans close with the kind's first word
        (``error: ...`` → ``error``, ``timeout after 2s`` → ``timeout``).
        """
        self._close_spans(cell, kind.split(":")[0].split(" ")[0])
        rec = self.report.record(cell)
        rec.errors.append(kind)
        if self.attempts[cell] >= 1 + self.retries:
            rec.status = "failed"
            self.failed[cell] = kind
            return
        self.report.retried += 1
        not_before = time.monotonic() + self.backoff * 2 ** (self.attempts[cell] - 1)
        self.pending.append((cell, not_before))
        # The cell only becomes *ready* once its backoff elapses.
        self.enqueued[cell] = not_before

    def deliver(self, cell, result, started: float, worker: str = "") -> bool:
        """Validate, then record and deliver a result; False if rejected."""
        if self.validate is not None and not self.validate(result):
            self.fail_or_requeue(cell, "invalid-result")
            return False
        self._close_spans(cell, "ok")
        self.results[cell] = result
        self.report.mark_ok(cell, time.monotonic() - started)
        if worker:
            self.report.record(cell).worker = worker
        if self.on_result is not None:
            self.on_result(cell, result)
        return True

    def settle(self, cancelled: bool) -> dict:
        """End the drain: raise what it owes, else return its results."""
        for cell in list(self.spans):
            self._close_spans(cell, "interrupted")
        if cancelled:
            raise KeyboardInterrupt
        if self.failed:
            raise ExecutorError(self.failed, self.report)
        return dict(self.results)

    def _close_spans(self, cell, status: str) -> None:
        for span in reversed(self.spans.pop(cell, ())):
            self.tracer.finish(span, status=status)


class Executor:
    """Abstract execution backend for the batch scheduler.

    Lifecycle: construct → :meth:`bind` once (the scheduler wires in
    its worker callable and completion plumbing) → any number of
    ``submit×N; drain()`` rounds → :meth:`close`.  :meth:`cancel` may
    arrive from another thread at any point and makes the active (or
    next) drain wind down at a cell boundary and raise
    :class:`KeyboardInterrupt`.
    """

    kind = "abstract"
    #: Whether drain payloads may carry a shared-memory trace map.
    #: Local pools attach the parent's /dev/shm buffers; anything that
    #: crosses a host boundary must regenerate traces worker-side
    #: (bit-identical by construction — traces are deterministic
    #: functions of the spec).
    wants_shared_traces = False

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        self.config = config if config is not None else ExecutorConfig()
        self._worker: Optional[Callable] = None
        self._validate: Optional[Callable] = None
        self._on_result: Optional[Callable] = None
        self._report: Optional[RunReport] = None
        self._tracer = None
        self._buffer: dict = {}
        self._cancelled = False

    def bind(
        self,
        *,
        worker: Callable,
        validate: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        report: Optional[RunReport] = None,
        tracer=None,
    ) -> "Executor":
        """Wire in the scheduler's worker callable and result plumbing.

        ``tracer`` is the scheduler's :class:`~repro.obs.spans.SpanTracer`
        or ``None``; backends emit attempt/lease spans only when set.
        """
        self._worker = worker
        self._validate = validate
        self._on_result = on_result
        self._report = report
        self._tracer = tracer
        return self

    # -- the protocol --------------------------------------------------- #

    def submit(self, cell, payload: dict) -> None:
        """Buffer one cell and its worker payload for the next drain."""
        self._buffer[cell] = payload

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Execute everything buffered; return ``{cell: result}``.

        ``timeout`` overrides the configured per-cell timeout for this
        round only (the scheduler tightens it to the batch's nearest
        deadline); ``None`` keeps the configured one.  Completed cells
        reach ``on_result`` immediately; cells that exhaust retries are
        raised in an :class:`ExecutorError` at the end.  Raises
        :class:`KeyboardInterrupt` if cancelled mid-drain.
        """
        raise NotImplementedError

    def cancel(self) -> None:
        """Stop the active (or next) drain at the next cell boundary."""
        self._cancelled = True

    def stats(self) -> ExecutorStats:
        return ExecutorStats(kind=self.kind)

    def close(self) -> None:
        """Release backend resources (listeners, connections, pools)."""

    def _take_buffer(self) -> dict:
        if self._worker is None:
            raise RuntimeError("executor is not bound; call bind() first")
        buffer, self._buffer = self._buffer, {}
        return buffer


class LocalPoolExecutor(Executor):
    """Runs cells on this host: in-process for ``jobs=1``, else a pool.

    Each drain runs the buffered cells through one
    :class:`AttemptLedger`.  In-process execution enforces no timeout —
    there is no second process to kill.  The pool mode, one pool per
    drain, adds:

    * a per-cell timeout: the overdue cell is charged ``timeout`` and
      the pool recycled (a hung worker cannot be cancelled alone), its
      innocent in-flight siblings refunded and resubmitted;
    * pool-death recovery: :class:`BrokenProcessPool` charges every
      in-flight cell ``pool-death`` and respawns the pool; past
      :data:`MAX_POOL_DEATHS` deaths the drain finishes in-process;
    * with ``hang_grace``, a heartbeat watchdog that SIGKILLs a worker
      silent mid-cell past the grace, turning a hang into a pool death.
    """

    kind = "local"
    wants_shared_traces = True

    def __init__(self, config: Optional[ExecutorConfig] = None) -> None:
        super().__init__(config)
        self._watchdog = None

    def drain(self, timeout: Optional[float] = None) -> dict:
        buffer = self._take_buffer()
        if not buffer:
            return {}
        ledger = AttemptLedger(self, buffer)
        # In-process for jobs=1, and to finish a drain whose pool degraded.
        if self.config.jobs <= 1 or not self._run_pool(
            ledger, self.config.timeout if timeout is None else timeout
        ):
            self._run_serial(ledger)
        return ledger.settle(self._cancelled)

    def _run_serial(self, ledger: AttemptLedger) -> None:
        while ledger.pending and not self._cancelled:
            cell = ledger.next_ready(time.monotonic())
            if cell is None:  # everything left is backing off
                time.sleep(_TICK)
                continue
            payload = ledger.charge(cell)
            if "fault" in payload:
                payload["fault_in_process"] = True
            start = time.monotonic()
            ledger.started(cell, start)
            try:
                _, result = self._worker(payload)
            except Exception as exc:
                ledger.fail_or_requeue(cell, f"error: {exc!r}")
                continue
            ledger.deliver(cell, result, start)

    def _run_pool(self, ledger: AttemptLedger, timeout: Optional[float]) -> bool:
        """Drain through a process pool; False once it must degrade."""
        grace = self.config.hang_grace
        hb_dir = None if grace is None else tempfile.mkdtemp(prefix="repro-hb-")
        inflight = ledger.inflight  # future -> (cell, deadline, submitted)
        deaths = 0
        pool = self._spawn(ledger.report, hb_dir)
        try:
            while (ledger.pending or inflight) and not self._cancelled:
                death = self._top_up(pool, ledger, hb_dir, timeout)
                if not death:
                    if not inflight:
                        time.sleep(_TICK)
                        continue
                    death = self._harvest(ledger)
                if not death:
                    now = time.monotonic()
                    overdue = [
                        fut
                        for fut, (_cell, deadline, _t0) in inflight.items()
                        if deadline is not None and now > deadline
                    ]
                    if not overdue:
                        continue
                    for fut in overdue:
                        cell, _deadline, _t0 = inflight.pop(fut)
                        ledger.report.timeouts += 1
                        ledger.fail_or_requeue(cell, f"timeout after {timeout:g}s")
                # Recycle: the innocent in-flight cells go back uncharged.
                for cell, _deadline, _t0 in inflight.values():
                    ledger.refund(cell)
                inflight.clear()
                _kill_pool(pool)
                pool = None
                if death:
                    ledger.report.pool_deaths += 1
                    deaths += 1
                    if deaths > MAX_POOL_DEATHS:
                        ledger.report.degraded_serial = True
                        return False
                pool = self._spawn(ledger.report, hb_dir)
        finally:
            self._disarm_watchdog()
            if pool is not None:
                if self._cancelled or inflight:
                    _kill_pool(pool)  # don't wait on hung workers
                else:
                    pool.shutdown(wait=True)
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)
        return True

    def _top_up(self, pool, ledger: AttemptLedger, hb_dir, timeout) -> bool:
        """Submit ready cells until ``jobs`` run; True if the pool broke."""
        now = time.monotonic()
        while len(ledger.inflight) < self.config.jobs:
            cell = ledger.next_ready(now)
            if cell is None:
                return False
            payload = ledger.charge(cell)
            if hb_dir is not None:
                payload["heartbeat"] = hb_dir
            try:
                fut = pool.submit(self._worker, payload)
            except BrokenProcessPool:
                ledger.refund(cell)
                return True
            ledger.started(cell, now)
            deadline = None if timeout is None else now + timeout
            ledger.inflight[fut] = (cell, deadline, now)
        return False

    def _harvest(self, ledger: AttemptLedger) -> bool:
        """Collect finished futures (one tick at most); True on pool death."""
        done, _ = wait(list(ledger.inflight), timeout=_TICK, return_when=FIRST_COMPLETED)
        death = False
        for fut in done:
            cell, _deadline, submitted = ledger.inflight.pop(fut)
            try:
                _, result = fut.result()
            except BrokenProcessPool:
                death = True
                ledger.fail_or_requeue(cell, "pool-death")
            except Exception as exc:
                ledger.fail_or_requeue(cell, f"error: {exc!r}")
            else:
                ledger.deliver(cell, result, submitted)
        return death

    def _spawn(self, report: RunReport, hb_dir):
        """A fresh pool, with the heartbeat watchdog (re)armed on it.

        Heartbeat files are cleared first — pids can be reused across
        pool generations, and a stale "busy" beat from a dead worker
        must never condemn its successor.
        """
        pool = ProcessPoolExecutor(max_workers=self.config.jobs)
        if hb_dir is not None:
            from repro.service.durability import WorkerWatchdog, clear_heartbeats

            def on_kill(_pid: int) -> None:
                report.watchdog_kills += 1

            self._disarm_watchdog()
            clear_heartbeats(hb_dir)
            self._watchdog = WorkerWatchdog(
                hb_dir,
                max(0.05, float(self.config.hang_grace)),
                lambda: getattr(pool, "_processes", None),
                on_kill=on_kill,
            ).start()
        return pool

    def _disarm_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None


def _kill_pool(pool) -> None:
    # Grab worker handles before shutdown clears them; terminate so
    # hung workers (sleeping past their timeout) die immediately.
    procs_attr = getattr(pool, "_processes", None)
    procs = list(procs_attr.values()) if isinstance(procs_attr, dict) else []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


def make_executor(
    executor, config: Optional[ExecutorConfig] = None, **options
) -> Executor:
    """Resolve the scheduler's ``executor=`` argument to a backend.

    Accepts a ready :class:`Executor` instance (adopted as-is; its
    config is replaced only if one is given here), or a kind string:
    ``"local"`` → :class:`LocalPoolExecutor`, ``"cluster"`` →
    :class:`~repro.cluster.ClusterExecutor` (imported lazily so the
    service works without the cluster tier loaded).  ``options`` are
    backend-specific constructor kwargs — e.g. ``listen="host:port"``
    for the cluster coordinator.
    """
    if isinstance(executor, Executor):
        if config is not None:
            executor.config = config
        return executor
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
        f"unknown executor {executor!r}; expected 'local', 'cluster' "
        f"or an Executor instance"
    )
