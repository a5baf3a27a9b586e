""":class:`BatchScheduler` — a long-running batch simulation service.

Large cache-simulation campaigns are throughput problems: thousands of
independent ``(mix, scheme, parameters)`` cells whose only coupling is
the shared result cache.  The scheduler turns an execution backend
into a *service* for them:

* **Submission** — ``submit(spec, priority=...)`` returns a
  :class:`concurrent.futures.Future` immediately; callers block on it
  or attach callbacks.
* **Deduplication** — a submission identical to a *pending or
  in-flight* spec joins its execution (two futures, one simulation);
  one identical to a finished spec resolves from memory; and the
  content-addressed :class:`ResultCache`
  (keyed by the canonical :meth:`RunSpec.cache_key`) is consulted
  before simulating, so results computed by *any* past run — a
  session's figure sweep or another service instance — are hits here.
* **Prioritisation** — lower ``priority`` values run earlier (ties in
  submission order); a duplicate submission at a more urgent priority
  promotes the queued spec.
* **Streaming fan-out** — execution goes through an
  :class:`~repro.service.executor.Executor` (the local pool by
  default): per-spec timeouts, bounded retry, pool-death recovery.
  Every cell runs through the one worker entry point,
  :func:`repro.execution.simulate._run_spec`, which the cluster's
  lanes share.
  The scheduler thread hands over one queued spec whenever the
  executor has a free slot, so priority promotion and dedup apply
  until that moment and a finished cell frees its slot for the next
  at once.  The specs themselves are the executor's cells, so cells in
  flight together can mix quotas, scales and cache sizes freely.
* **Busy periods** — work runs in busy periods, each ending when
  nothing is queued or in flight.  The end of one is where terminal
  journal records are fsync'd and the run report rewritten.
* **One execution path** — :func:`run_batch` is how every spec grid
  runs: :class:`~repro.api.session.Session` (and so the figure sweeps
  and the CLI) answers its memo misses with one call, ``repro batch``
  and ``repro serve`` drive a scheduler directly, and the cluster tier
  plugs in underneath as an executor.
* **Graceful shutdown** — ``close(drain=True)`` finishes everything
  queued; ``close(drain=False)`` (the SIGINT path of ``repro serve`` /
  ``repro batch``) cancels queued work, stops in-flight cells at the
  next cell boundary, and still writes the cumulative
  :class:`~repro.execution.report.RunReport`.

Simulations are deterministic functions of their spec, so results are
bit-identical to a direct ``simulate_spec`` call — the dedup/scheduling
layer only changes *when* a cell runs, never what it computes.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.api.spec import RunSpec, SpecError
from repro.execution.faults import fault_plan_from_env
from repro.execution.report import RunReport
from repro.execution.simulate import _run_spec
from repro.experiments.parallel import ResultCache
from repro.service.executor import ExecutorConfig, make_executor
from repro.service.durability import BatchJournal, JournalError
from repro.sim.results import SystemResult


class JobFailed(RuntimeError):
    """A submitted spec exhausted its retries; set on its futures."""

    def __init__(self, spec: RunSpec, kind: str) -> None:
        self.spec = spec
        self.kind = kind
        super().__init__(f"{spec.name} failed after retries: {kind}")


class SchedulerClosed(RuntimeError):
    """``submit`` was called on a scheduler that stopped accepting work."""


#: Version of the :meth:`ServiceStats.to_dict` record shape.  Bump on
#: any incompatible change (renamed/retyped keys); additive keys keep
#: the version.  v1: the service counters plus ``spans``/``span_phases``.
#: v2 (3.0.0): the per-scheme circuit state and its rejection count
#: are gone.  v3: ``shm_swept`` is gone with the shared-memory trace
#: layer.  v4 (5.0.0): ``shed`` is gone with admission control, and the
#: copies of the run report's watchdog and quarantine counters are gone
#: too.
STATS_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class ServiceStats:
    """A consistent snapshot of the scheduler's counters.

    ``latency`` maps scheme name to the summary quantiles (p50/p90/p99,
    count, sum, max) of submit-to-result latency for *executed* specs;
    cache and dedup hits resolve too fast to be interesting.

    The one serialised shape is :meth:`to_dict` — ``/healthz``, the
    ``/metrics`` exporter and :func:`repro.service.wire.stats_record`
    all consume it, so a counter added here reaches every surface.
    """

    submitted: int
    dedup_hits: int
    cache_hits: int
    executed: int
    failed: int
    cancelled: int
    queue_depth: int
    inflight: int
    latency: dict = field(default_factory=dict)
    #: Specs re-enqueued from the journal by ``recover``/``--resume``.
    recovered: int = 0
    #: Stale result-cache tmp files swept at open.
    cache_tmp_swept: int = 0
    #: Execution backend kind (``local`` or ``cluster``) and the
    #: cluster gauges — zero under the local pool.
    executor: str = "local"
    workers_connected: int = 0
    leases_active: int = 0
    redispatches: int = 0
    #: Span-tracer counters (``started``/``finished``/``adopted``/
    #: ``dropped``) — empty when tracing is off.
    spans: dict = field(default_factory=dict)
    #: ``{phase: quantile summary}`` of span durations — empty when
    #: tracing is off.
    span_phases: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The versioned stats record every surface consumes."""
        from dataclasses import asdict

        return {"stats_version": STATS_SCHEMA_VERSION, **asdict(self)}


class _Entry:
    """One unique spec's lifecycle: its futures and queue state."""

    __slots__ = (
        "spec",
        "priority",
        "seq",
        "futures",
        "created",
        "state",
        "key",
        "span",
        "started",
    )

    def __init__(self, spec: RunSpec, priority: int, seq: int) -> None:
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.futures: list[Future] = []
        # ``started``: handed to the executor (submit-to-result latency).
        self.created = self.started = time.monotonic()
        self.state = "queued"  # queued | inflight | done
        self.key: Optional[str] = None  # cache key, set when journaling
        self.span = None  # live cell span, only when tracing is on


def _notify_cancel(future: Future) -> None:
    """Cancel a future *and complete the handshake*.

    ``Future.cancel()`` alone leaves the state at ``CANCELLED``;
    ``concurrent.futures.wait``/``as_completed`` only treat
    ``CANCELLED_AND_NOTIFIED`` as done, and that transition normally
    belongs to the executor that owns the future.  This scheduler is
    that executor, so it must perform it — otherwise a front-end
    blocked in ``wait()`` hangs forever after ``close(drain=False)``.
    """
    if future.cancel():
        try:
            future.set_running_or_notify_cancel()
        except Exception:  # noqa: BLE001 - already notified elsewhere
            pass


class BatchScheduler:
    """Asynchronous batch scheduler over a pluggable execution backend.

    Parameters mirror the CLI orchestration flags.  With
    ``start=False`` the scheduler queues submissions without executing
    until :meth:`start` is called — deterministic for tests and for
    front-ends that want to enqueue a whole file before work begins.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        report_path: str | os.PathLike | None = None,
        metrics_path: str | os.PathLike | None = None,
        journal_dir: str | os.PathLike | None = None,
        journal: bool = True,
        start: bool = True,
        executor: str = "local",
        executor_options: Optional[dict] = None,
        spans_path: str | os.PathLike | None = None,
        tracer=None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.retries = retries
        # Request-path tracing is opt-in: a --spans path (or an explicit
        # tracer) turns it on; otherwise ``self.tracer`` stays None and
        # every emission site below is a single pointer test.
        if tracer is None and spans_path is not None:
            from repro.obs.spans import SpanTracer

            tracer = SpanTracer()
        self.tracer = tracer
        self.spans_path = spans_path
        self._span_specs: dict[str, RunSpec] = {}  # cell span_id -> spec
        options = dict(executor_options or {})
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        #: Rides every cell's payload: whatever process simulates the cell
        #: keeps its trace buffers under ``<cache_dir>/_traces``, beside
        #: the result cache.
        self._cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        if report_path is None and cache_dir is not None:
            report_path = Path(cache_dir) / "run_report.json"
        self.report_path = report_path
        self.metrics_path = metrics_path
        # The write-ahead journal lives next to the result cache by
        # default — one root for everything a resume needs.
        if journal_dir is None and journal and cache_dir is not None:
            journal_dir = cache_dir
        self._journal = (
            BatchJournal(journal_dir) if journal and journal_dir is not None else None
        )
        self._journal_closed = False
        plan = options.pop("fault_plan", None)
        if plan is None:
            plan = fault_plan_from_env()
        config = ExecutorConfig(
            jobs=self.jobs,
            timeout=timeout,
            retries=retries,
            backoff=options.pop("backoff", 0.25),
            fault_plan=plan,
        )
        self.executor = make_executor(executor, config, **options)
        #: Cumulative report across every busy period of this scheduler.
        self.report = RunReport(
            config={
                "jobs": self.jobs,
                "timeout": timeout,
                "retries": retries,
                "executor": self.executor.kind,
            }
        )
        self._lock = threading.Lock()
        #: The one condition: the scheduler thread waits on it for
        #: submissions, executor completions and close; ``drain`` waits
        #: on it for the end of the busy period.
        self._wake = threading.Condition(self._lock)
        self.executor.bind(
            worker=_run_spec,
            validate=lambda result: isinstance(result, SystemResult),
            on_result=lambda spec, result: self._resolve(
                spec, result, simulated=True
            ),
            on_failed=lambda spec, kind: self._fail(spec, JobFailed(spec, kind)),
            report=self.report,
            tracer=self.tracer,
            wakeup=self._wake,
        )
        self._queue: list[tuple[int, int, RunSpec]] = []  # (priority, seq, spec)
        self._entries: dict[RunSpec, _Entry] = {}
        self._results: dict[RunSpec, SystemResult] = {}
        self._seq = itertools.count()
        self._closing = False
        self._abort = False
        self._busy = False  # a busy period is open (see _dispatch)

        self.submitted = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executed = 0
        self.failed = 0
        self.cancelled = 0
        self.recovered = 0
        self._latencies: dict[str, list[float]] = {}

        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        spec: RunSpec,
        priority: int = 0,
        trace=None,
    ) -> Future:
        """Queue one spec; the returned future resolves to its result.

        Lower ``priority`` runs earlier.  ``trace`` is an optional
        inbound span context (``{"trace_id", "span_id"}``): when tracing
        is on, the cell span roots under it instead of starting a fresh
        trace.
        Raises :class:`~repro.api.spec.SpecError` on an invalid spec and
        :class:`SchedulerClosed` after :meth:`close`; any other
        submission is accepted and runs.
        """
        spec.validate()
        future: Future = Future()
        with self._lock:
            if self._closing:
                raise SchedulerClosed("scheduler is closed to new submissions")
            self.submitted += 1
            done = self._results.get(spec)
            if done is not None:
                self.cache_hits += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "dedup", trace, cell=spec.name, source="memory"
                    )
                future.set_result(done)
                return future
            entry = self._entries.get(spec)
            if entry is not None:
                # In-flight dedup: identical pending/executing spec —
                # share its execution, promote its priority if ours is
                # more urgent and it has not been picked up yet.
                self.dedup_hits += 1
                entry.futures.append(future)
                if self.tracer is not None:
                    self.tracer.event(
                        "dedup",
                        trace if trace is not None else entry.span,
                        cell=spec.name,
                        source="inflight",
                    )
                if entry.state == "queued" and priority < entry.priority:
                    entry.priority = priority
                    heappush(self._queue, (priority, entry.seq, spec))
                return future
            entry = _Entry(spec, priority, next(self._seq))
            entry.futures.append(future)
            if self.tracer is not None:
                entry.span = self.tracer.begin(
                    "cell", trace, cell=spec.name, scheme=spec.scheme
                )
                self._span_specs[entry.span.span_id] = spec
            if self._journal is not None:
                entry.key = spec.cache_key()
                self._journal.append(
                    "submitted", entry.key, spec=spec.to_dict(), priority=priority
                )
            self._entries[spec] = entry
            heappush(self._queue, (priority, entry.seq, spec))
            self._wake.notify_all()
        return future

    def map(self, specs: Iterable[RunSpec], priority: int = 0) -> list[Future]:
        """Submit a whole batch; futures in submission order."""
        return [self.submit(spec, priority=priority) for spec in specs]

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls, journal_dir: str | os.PathLike, **scheduler_kwargs
    ) -> "BatchScheduler":
        """Build a scheduler on an existing journal and resume its work.

        ``journal_dir`` doubles as the default ``cache_dir`` (they share
        a root unless told otherwise), so specs whose results landed in
        the disk cache before the crash resolve from it without
        re-simulation; only genuinely unfinished work re-executes.  The
        replay summary is left on ``scheduler.resume_summary``.
        """
        scheduler_kwargs.setdefault("cache_dir", journal_dir)
        scheduler_kwargs["journal_dir"] = journal_dir
        scheduler_kwargs["journal"] = True
        scheduler = cls(**scheduler_kwargs)
        scheduler.resume_summary = scheduler.resume_from_journal()
        return scheduler

    def resume_from_journal(self) -> dict:
        """Replay the journal; re-enqueue every outstanding spec.

        Returns a summary dict: ``pending`` (outstanding records found),
        ``resumed`` (re-enqueued here), ``cache_resident`` (of those,
        already content-addressed on disk — they will resolve from the
        cache, not re-simulate), ``done`` (journaled terminal),
        ``corrupt_lines`` (torn/invalid lines skipped), and ``futures``
        (``(spec, Future)`` pairs for the re-enqueued work, in replay
        order, so front-ends can await and print per-spec outcomes).
        """
        if self._journal is None:
            raise JournalError(
                "scheduler has no journal; pass cache_dir or journal_dir"
            )
        replay = self._journal.replay()
        # Parse every pending spec before submitting any, so a journal
        # this version cannot read re-enqueues nothing.
        try:
            pending = [
                (key, RunSpec.from_dict(spec_dict), priority)
                for key, spec_dict, priority in replay.pending
            ]
        except SpecError as exc:
            raise JournalError(
                f"{self._journal.path} was written by an older repro: "
                f"{exc}; finish that batch with the version that wrote "
                f"it, or remove the journal"
            ) from None
        cache_resident = 0
        futures: list = []
        for key, spec, priority in pending:
            if self.cache is not None and self.cache.contains(key):
                cache_resident += 1
            futures.append((spec, self.submit(spec, priority=priority)))
        with self._lock:
            self.recovered += len(futures)
        return {
            "pending": len(replay.pending),
            "resumed": len(futures),
            "cache_resident": cache_resident,
            "done": len(replay.done_keys),
            "corrupt_lines": replay.corrupt_lines,
            "futures": futures,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "BatchScheduler":
        """Start the scheduler thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-batch-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the busy period ends; True on success."""
        until = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while self._entries or self._queue or self._busy:
                remaining = None
                if until is not None:
                    remaining = until - time.monotonic()
                    if remaining <= 0:
                        return False
                self._wake.wait(remaining if remaining is not None else 0.5)
        return True

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; finish or cancel what's queued.

        ``drain=True`` completes everything already submitted.
        ``drain=False`` — the interrupt path — cancels queued specs
        (their futures report cancelled), asks the executor to stop its
        in-flight cells at the next cell boundary, and returns once the
        scheduler thread exits.  Both paths write the cumulative run
        report (and the metrics file, when configured).
        """
        if not drain:
            self.executor.cancel()
        with self._lock:
            self._closing = True
            if not drain:
                self._interrupt_locked(inflight=False)
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        self.executor.close()
        if self._journal is not None and not self._journal_closed:
            self._journal_closed = True
            # A drained close replays to an empty work set, so compaction
            # truncates the journal; an abort keeps it for resumption.
            self._journal.close(compact=drain and not self._abort)
        self._write_outputs()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> ServiceStats:
        from repro.obs.metrics import latency_quantiles

        xstats = self.executor.stats()
        span_counters: dict = {}
        span_phases: dict = {}
        if self.tracer is not None:
            from repro.obs.spans import phase_breakdown

            span_counters = self.tracer.counters()
            span_phases = phase_breakdown(
                (span.name, span.duration) for span in self.tracer.snapshot()
            )
        with self._lock:
            queued = sum(1 for e in self._entries.values() if e.state == "queued")
            inflight = sum(1 for e in self._entries.values() if e.state == "inflight")
            return ServiceStats(
                submitted=self.submitted,
                dedup_hits=self.dedup_hits,
                cache_hits=self.cache_hits,
                executed=self.executed,
                failed=self.failed,
                cancelled=self.cancelled,
                queue_depth=queued,
                inflight=inflight,
                latency={
                    scheme: latency_quantiles(samples)
                    for scheme, samples in self._latencies.items()
                },
                recovered=self.recovered,
                cache_tmp_swept=self.cache.tmp_swept if self.cache else 0,
                executor=xstats.kind,
                workers_connected=xstats.workers_connected,
                leases_active=xstats.leases_active,
                redispatches=xstats.redispatches,
                spans=span_counters,
                span_phases=span_phases,
            )

    # ------------------------------------------------------------------ #
    # Scheduler thread
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        executor = self.executor
        while True:
            # Completions resolve here, on this thread, outside the lock.
            wait = executor.poll()
            with self._wake:
                if self._abort or executor.cancelled:
                    self._interrupt_locked(inflight=True)
                entry = self._next_locked() if executor.free_slots() > 0 else None
                ended = self._busy and not self._queue and executor.ledger.idle
                if entry is None and not ended:
                    if not self._busy:
                        self._wake.notify_all()  # drain() waiters
                        if self._closing and not self._queue:
                            return
                    if not executor.signalled:
                        self._wake.wait(wait)
                    continue
            if entry is not None:
                self._dispatch(entry)
            else:
                self._end_busy_period()

    def _next_locked(self) -> Optional[_Entry]:
        """Pop the most urgent queued entry and mark it in flight."""
        while self._queue:
            _priority, _seq, spec = heappop(self._queue)
            entry = self._entries.get(spec)
            if entry is None or entry.state != "queued":
                continue  # stale heap tuple (promoted, resolved, cancelled)
            if all(f.cancelled() for f in entry.futures):
                self._cancel_locked(entry)
                continue
            entry.state = "inflight"
            return entry
        return None

    def _dispatch(self, entry: _Entry) -> None:
        """Hand one entry to the executor, unless it resolves without one:
        cache pre-pass first, then the durable ``started`` record (one
        fsync)."""
        spec = entry.spec
        if not self._busy:
            self._begin_busy_period()
        now = time.monotonic()
        if self.tracer is not None and entry.span is not None:
            # Recorded in hindsight: the wait ends at this handover.
            self.tracer.complete("queue", entry.span, duration=now - entry.created)
        if self.cache is not None:
            found = self.cache.get(spec.cache_key())
            if self.tracer is not None and entry.span is not None:
                self.tracer.complete(
                    "cache",
                    entry.span,
                    duration=time.monotonic() - now,
                    hit=found is not None,
                )
            if found is not None:
                with self._lock:
                    self.cache_hits += 1
                self.report.mark_hit(spec)
                self._resolve(spec, found, simulated=False)
                return
        if self._journal is not None:
            self._journal.append("started", entry.key)
            self._journal.flush()
        payload = {"spec": spec.to_dict()}
        if self._cache_dir is not None:
            payload["cache_dir"] = self._cache_dir
        if self.tracer is not None and entry.span is not None:
            # The cell's context rides the payload: the executor parents
            # its attempt/lease spans under it, and a remote worker's
            # execute span stitches home through it.
            payload["trace"] = entry.span.context()
        entry.started = time.monotonic()
        self.executor.submit(spec, payload)

    def _begin_busy_period(self) -> None:
        """Open a busy period; bind a seeded fault plan to its cells.

        The plan binds once, against the specs queued now that will
        really run (not cache-resident), so its victim count is exact;
        :func:`run_batch` queues its whole grid first.
        """
        self._busy = True
        plan = self.executor.config.fault_plan
        if plan is not None and plan.spec:
            cache = self.cache
            with self._lock:
                entries = list(self._entries.values())
            plan.bind(
                [
                    e.spec
                    for e in entries
                    if cache is None or not cache.contains(e.spec.cache_key())
                ]
            )

    def _end_busy_period(self) -> None:
        """Nothing is queued or in flight: fsync the terminal journal
        records and rewrite the report."""
        self.executor.drain()
        if self._journal is not None:
            self._journal.flush()
        if self.report.interrupted:
            print(self.report.summary(), file=sys.stderr)
        self._flush_report()
        with self._lock:
            self._busy = False
            self._wake.notify_all()

    # ------------------------------------------------------------------ #
    # Completion plumbing
    # ------------------------------------------------------------------ #

    def _finish_cell_span(self, entry: Optional[_Entry], status: str, **attrs) -> None:
        """Finish an entry's cell span at a terminal transition (no-op
        when tracing is off or the entry never had a span)."""
        if self.tracer is None or entry is None or entry.span is None:
            return
        self.tracer.finish(entry.span, status=status, **attrs)

    def _resolve(self, spec: RunSpec, result: SystemResult, *, simulated: bool) -> None:
        # Order matters for crash safety: the result reaches the
        # content-addressed cache *before* its ``done`` record, so a
        # crash in between just replays a pending spec the disk pre-pass
        # resolves without re-simulation.
        if self.cache is not None and simulated:
            self.cache.put(spec.cache_key(), result)
        with self._lock:
            entry = self._entries.pop(spec, None)
            self._results[spec] = result
            if simulated:
                self.executed += 1
                if entry is not None:
                    self._latencies.setdefault(spec.scheme, []).append(
                        time.monotonic() - entry.started
                    )
            futures = list(entry.futures) if entry is not None else []
            if entry is not None:
                entry.state = "done"
        self._finish_cell_span(
            entry, "ok", source="simulated" if simulated else "cache"
        )
        if entry is not None and self._journal is not None and entry.key is not None:
            self._journal.append(
                "done", entry.key, detail="simulated" if simulated else "cache"
            )
        for future in futures:
            if not future.cancelled():
                future.set_result(result)

    def _fail(self, spec: RunSpec, error: Exception) -> None:
        with self._lock:
            entry = self._entries.pop(spec, None)
            self.failed += 1
            futures = list(entry.futures) if entry is not None else []
            if entry is not None:
                entry.state = "done"
        self._finish_cell_span(entry, "failed", error=type(error).__name__)
        if entry is not None and self._journal is not None and entry.key is not None:
            self._journal.append("failed", entry.key, detail=str(error))
        for future in futures:
            if not future.cancelled():
                future.set_exception(error)

    def _cancel_locked(self, entry: _Entry, *, journal: bool = True) -> None:
        """Retire an entry without a result — the one cancel path.

        Entries whose every future was cancelled and the cells an abort
        stops both land here: the entry leaves the work set, its cell
        span finishes ``cancelled``, a ``cancelled`` journal record is
        written when ``journal`` is set (an abort keeps the
        ``submitted`` record for ``--resume``), and its futures are
        cancelled.
        """
        entry.state = "done"
        self._entries.pop(entry.spec, None)
        self.cancelled += 1
        self._finish_cell_span(entry, "cancelled")
        if journal and self._journal is not None and entry.key is not None:
            self._journal.append("cancelled", entry.key)
        for future in entry.futures:
            _notify_cancel(future)

    def _interrupt_locked(self, *, inflight: bool) -> None:
        """Abort: retire outstanding entries, keeping their journal records
        for ``--resume``.  In-flight ones (``inflight=True``) go only from
        the scheduler thread, once the executor has abandoned them.  A
        busy period cut short is reported interrupted, its cells pending."""
        self._abort = True
        if self._busy and self._entries:
            self.report.interrupted = True
        for entry in list(self._entries.values()):
            if inflight or entry.state == "queued":
                if self._busy:
                    self.report.record(entry.spec)
                self._cancel_locked(entry, journal=False)
        self._queue.clear()

    def _flush_report(self) -> None:
        if self.cache is not None:
            self.report.cache_hits = self.cache.hits
            self.report.cache_misses = self.cache.misses
            self.report.cache_quarantined = self.cache.quarantined
        if self.tracer is not None:
            # Fold the tracer's per-cell phase totals into existing
            # report records (RunReport v4).  Only existing records:
            # creating one here would invent "pending" cells the report
            # never executed.
            for span_id, phases in self.tracer.rollup().items():
                spec = self._span_specs.get(span_id)
                if spec is None:
                    continue
                record = self.report.records.get(spec)
                if record is not None:
                    record.phases = phases
        self.report.finalize()
        if self.report_path is not None:
            self.report.write(self.report_path)

    def _write_outputs(self) -> None:
        self._flush_report()
        if self.metrics_path is not None:
            path = Path(self.metrics_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            from repro.obs.metrics import prometheus_text

            path.write_text(prometheus_text(self.stats(), self.report))
        if self.tracer is not None and self.spans_path is not None:
            path = Path(self.spans_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as stream:
                self.tracer.write_jsonl(stream)


def run_batch(
    specs: Sequence[RunSpec],
    *,
    priorities: Optional[Sequence[int]] = None,
    **scheduler_kwargs,
) -> tuple[list, ServiceStats, RunReport]:
    """One-shot convenience: schedule ``specs``, wait, return everything.

    Returns ``(outcomes, stats, report)`` where ``outcomes[i]`` is the
    :class:`SystemResult` for ``specs[i]`` (or the exception it failed
    with).  The execution path behind every
    :class:`~repro.api.session.Session` miss.  Every spec is queued
    before the scheduler thread starts, so the first busy period sees
    the whole grid.
    """
    scheduler = BatchScheduler(**scheduler_kwargs, start=False)
    try:
        futures = [
            scheduler.submit(
                spec, priority=priorities[i] if priorities is not None else 0
            )
            for i, spec in enumerate(specs)
        ]
        scheduler.start()
        outcomes: list = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # noqa: BLE001 - surfaced per spec
                outcomes.append(exc)
        scheduler.close(drain=True)
    except BaseException:
        scheduler.close(drain=False)
        raise
    return outcomes, scheduler.stats(), scheduler.report
