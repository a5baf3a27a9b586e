"""Supervised task execution for experiment fan-outs.

:class:`Supervisor` replaces the bare ``pool.map`` fan-out with
task-level submission so a long (mix x scheme) campaign survives the
failure modes that bare pools turn into lost work:

* **Immediate durability** — every finished cell is handed to
  ``on_result`` the moment its future resolves (the batch scheduler
  stores it in memory *and* the disk cache), so nothing already computed
  is ever discarded by a later failure.
* **Per-cell timeouts** — a cell that overruns ``timeout`` seconds is
  charged a failed attempt and the worker pool is recycled (a hung
  worker cannot be cancelled individually, so the pool's processes are
  terminated and every other in-flight cell is resubmitted *without*
  being charged an attempt).
* **Bounded retry with backoff** — transient failures (worker
  exceptions, timeouts, invalid results) are retried up to ``retries``
  times with exponential backoff; a cell that exhausts its attempts is
  reported in a :class:`SupervisionError` rather than silently dropped.
* **Pool-death recovery** — :class:`BrokenProcessPool` (a worker dying
  hard, e.g. OOM-killed) respawns the pool and resubmits only the
  unfinished cells; after ``max_pool_deaths`` respawns the supervisor
  degrades to in-process serial execution and finishes the sweep.
* **Graceful interruption** — ``SIGINT`` sets a stop flag instead of
  unwinding mid-cell: completed cells are already flushed, the
  :class:`RunReport` is written, a resumable-state summary is printed,
  and ``KeyboardInterrupt`` is re-raised for the caller.

The :class:`RunReport` manifest records per-cell status, sources
(memory / cache / simulated), attempts, durations and errors, plus
run-level counters (timeouts, pool deaths, retries).  Written as JSON
alongside the result cache it is the ground truth for "what remains"
when an interrupted sweep is re-invoked.

Fault-free runs take the same simulation path as before — supervision
only changes *scheduling*, and simulations are deterministic functions
of their payload, so results stay bit-identical to a direct
``simulate_spec`` call.  The one construction site is
:class:`repro.service.executor.LocalPoolExecutor`.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.faults import FaultPlan

#: Poll interval for the completion/timeout/interrupt checks (seconds).
_TICK = 0.05

#: Sentinel distinguishing "no handler installed" from SIG_DFL/None.
_UNSET = object()


def cell_parts(cell) -> tuple[tuple, str]:
    """``(codes, scheme)`` of a cell, whatever its spelling.

    The batch service schedules :class:`repro.api.spec.RunSpec` objects;
    direct :class:`Supervisor` users may schedule plain ``(codes,
    scheme)`` tuples.  Reports and metrics render both the same way.
    """
    mix = getattr(cell, "mix", None)
    if mix is not None:
        return tuple(mix), cell.scheme
    codes, scheme = cell
    return tuple(codes), scheme


def cell_name(cell) -> str:
    """Human-readable ``471+444/avgcc`` form of a cell."""
    codes, scheme = cell_parts(cell)
    return f"{'+'.join(str(c) for c in codes)}/{scheme}"


@dataclass
class CellRecord:
    """One cell's lifecycle inside a supervised run."""

    cell: tuple
    status: str = "pending"  # pending | ok | failed
    source: str = ""  # memory | cache | simulated (set when status == ok)
    attempts: int = 0
    duration: float = 0.0
    #: Summed ready-to-submitted latency across this cell's attempts.
    queue_seconds: float = 0.0
    #: Which execution backend worker finished the cell — empty for the
    #: local pool (anonymous child processes), the registered worker
    #: name under the cluster executor.
    worker: str = ""
    errors: list = field(default_factory=list)
    #: Per-phase seconds from the span tracer (queue/cache/attempt/
    #: lease/execute...), folded in when tracing is on; empty otherwise.
    phases: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        codes, scheme = cell_parts(self.cell)
        return {
            "codes": list(codes),
            "scheme": scheme,
            "status": self.status,
            "source": self.source,
            "attempts": self.attempts,
            "duration": round(self.duration, 6),
            "queue_seconds": round(self.queue_seconds, 6),
            "worker": self.worker,
            "errors": list(self.errors),
            "phases": {name: round(value, 6) for name, value in self.phases.items()},
        }


class RunReport:
    """Manifest of a supervised sweep: per-cell records + run counters.

    Serialised as JSON next to the result cache, the report is both the
    human-readable account of a run (``summary()``) and the machine
    check for resume tests: ``counts["cache"]`` vs ``counts["simulated"]``
    says exactly how much work a re-invocation actually redid.
    """

    #: v4: CellRecord gains ``phases`` (per-phase seconds from the span
    #: tracer); absent/empty when tracing is off.
    VERSION = 4

    def __init__(self, config: Optional[dict] = None) -> None:
        self.config = dict(config or {})
        self.records: dict = {}
        self.pool_deaths = 0
        self.timeouts = 0
        self.retried = 0
        #: Workers SIGKILLed by the heartbeat watchdog (hung mid-cell).
        self.watchdog_kills = 0
        self.degraded_serial = False
        self.interrupted = False
        self.started = time.time()
        self.finished: Optional[float] = None
        #: Disk result-cache traffic attributable to this run (folded in
        #: by the batch scheduler; stay zero for cache-less sweeps).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_quarantined = 0
        self._mono_started = time.monotonic()
        self._mono_finished: Optional[float] = None

    # -- recording ----------------------------------------------------- #

    def record(self, cell) -> CellRecord:
        rec = self.records.get(cell)
        if rec is None:
            rec = self.records[cell] = CellRecord(cell)
        return rec

    def mark_hit(self, cell, source: str) -> None:
        """Cell satisfied without simulating (``memory`` or ``cache``)."""
        rec = self.record(cell)
        rec.status, rec.source = "ok", source

    def mark_ok(self, cell, duration: float) -> None:
        rec = self.record(cell)
        rec.status, rec.source = "ok", "simulated"
        rec.duration += duration

    def finalize(self) -> None:
        self.finished = time.time()
        self._mono_finished = time.monotonic()

    # -- reading ------------------------------------------------------- #

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds (monotonic) from construction to finalize.

        A live (not yet finalized) report measures up to *now*, so the
        metric is usable from progress hooks mid-sweep.
        """
        end = self._mono_finished
        if end is None:
            end = time.monotonic()
        return max(0.0, end - self._mono_started)

    @property
    def busy_seconds(self) -> float:
        """Summed simulation wall time across all workers."""
        return sum(rec.duration for rec in self.records.values())

    @property
    def queue_seconds(self) -> float:
        """Summed ready-to-submitted latency across all cells."""
        return sum(rec.queue_seconds for rec in self.records.values())

    @property
    def worker_utilization(self) -> float:
        """``busy_seconds / (elapsed * jobs)`` — the fan-out's efficiency."""
        elapsed = self.elapsed
        jobs = max(1, int(self.config.get("jobs") or 1))
        if elapsed <= 0.0:
            return 0.0
        return self.busy_seconds / (elapsed * jobs)

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def counts(self) -> dict:
        c = {
            "total": len(self.records),
            "memory": 0,
            "cache": 0,
            "simulated": 0,
            "failed": 0,
            "pending": 0,
        }
        for rec in self.records.values():
            if rec.status == "ok":
                c[rec.source or "simulated"] += 1
            elif rec.status == "failed":
                c["failed"] += 1
            else:
                c["pending"] += 1
        c["hits"] = c["memory"] + c["cache"]
        return c

    @property
    def total_attempts(self) -> int:
        return sum(rec.attempts for rec in self.records.values())

    def to_dict(self) -> dict:
        return {
            "version": self.VERSION,
            "started": self.started,
            "finished": self.finished,
            "interrupted": self.interrupted,
            "degraded_serial": self.degraded_serial,
            "pool_deaths": self.pool_deaths,
            "timeouts": self.timeouts,
            "retried": self.retried,
            "watchdog_kills": self.watchdog_kills,
            "config": self.config,
            "counts": self.counts,
            "timing": {
                "elapsed": round(self.elapsed, 6),
                "busy_seconds": round(self.busy_seconds, 6),
                "queue_seconds": round(self.queue_seconds, 6),
                "worker_utilization": round(self.worker_utilization, 6),
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "quarantined": self.cache_quarantined,
                "hit_ratio": round(self.cache_hit_ratio, 6),
            },
            "cells": [rec.to_dict() for rec in self.records.values()],
        }

    def to_prometheus(self, per_cell: bool = True) -> str:
        """Prometheus text-exposition rendering of this report."""
        from repro.obs.metrics import report_to_prometheus

        return report_to_prometheus(self, per_cell=per_cell)

    def write(self, path: str | os.PathLike) -> Path:
        """Atomically write the report as JSON (tmp file + replace)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(json.dumps(self.to_dict(), indent=2))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def summary(self) -> str:
        c = self.counts
        lines = [
            f"run report: {c['total']} cells — {c['hits']} cached, "
            f"{c['simulated']} simulated, {c['failed']} failed, "
            f"{c['pending']} pending",
            f"  attempts {self.total_attempts} ({self.retried} retried), "
            f"{self.timeouts} timeouts, {self.pool_deaths} pool deaths, "
            f"{self.watchdog_kills} watchdog kills"
            + (", degraded to serial" if self.degraded_serial else ""),
        ]
        if self.interrupted:
            lines.append(
                "  interrupted — completed cells are on disk; re-run the "
                "same command to resume from the cache"
            )
        return "\n".join(lines)


class SupervisionError(RuntimeError):
    """Cells exhausted their retry budget; carries the full report."""

    def __init__(self, failed: dict, report: RunReport) -> None:
        self.failed = dict(failed)
        self.report = report
        detail = "; ".join(
            f"{cell_name(cell)}: {kind}" for cell, kind in self.failed.items()
        )
        super().__init__(
            f"{len(self.failed)} cell(s) failed after retries — {detail}"
        )


class Supervisor:
    """Runs cells through a worker with timeouts, retries and recovery.

    ``worker`` is a picklable callable taking one payload dict and
    returning ``(cell, result)``; ``payload_fn(cell)`` builds the
    payload.  Results passing ``validate`` are delivered to
    ``on_result(cell, result)`` immediately upon completion.  With
    ``jobs <= 1`` everything runs in-process (no pool, no timeout
    enforcement — there is no second process to cancel), which is also
    the degraded mode entered after repeated pool deaths.
    """

    def __init__(
        self,
        worker: Callable,
        payload_fn: Callable,
        *,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        max_pool_deaths: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        hang_grace: Optional[float] = None,
        validate: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        report: Optional[RunReport] = None,
        report_path: Optional[str | os.PathLike] = None,
        stream=None,
    ) -> None:
        self.worker = worker
        self.payload_fn = payload_fn
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.max_pool_deaths = max(0, int(max_pool_deaths))
        self.fault_plan = fault_plan
        #: Heartbeat watchdog grace (seconds).  When set and running in
        #: pool mode, workers heartbeat between cells and a monitor
        #: thread SIGKILLs any worker silent-but-busy past this long;
        #: the BrokenProcessPool recovery path then respawns the pool.
        self.hang_grace = None if hang_grace is None else max(0.05, float(hang_grace))
        self._hb_dir: Optional[str] = None
        self._watchdog = None
        self.validate = validate
        self.on_result = on_result
        self.report = report if report is not None else RunReport()
        self.report_path = report_path
        self.stream = stream
        self._stop = False
        self._attempts: dict = {}
        self._results: dict = {}
        self._failed: dict = {}
        self._pool_deaths = 0
        #: cell -> monotonic instant it last became ready to run; the gap
        #: to actual submission is charged as the cell's queue latency.
        self._enqueued: dict = {}

    # -- public -------------------------------------------------------- #

    def request_stop(self) -> None:
        """Ask the run loop to wind down after the in-flight work."""
        self._stop = True

    def run(self, cells) -> dict:
        """Execute every cell; return ``{cell: result}``.

        Raises :class:`SupervisionError` if any cell exhausted its
        retries, and :class:`KeyboardInterrupt` (after flushing and
        writing the report) if the run was interrupted.
        """
        cells = list(dict.fromkeys(cells))
        ready = time.monotonic()
        for cell in cells:
            self.report.record(cell)
            self._attempts.setdefault(cell, 0)
            self._enqueued[cell] = ready
        if self.fault_plan is not None:
            self.fault_plan.bind(cells)

        old_handler = _UNSET
        try:
            old_handler = signal.signal(signal.SIGINT, self._on_sigint)
        except ValueError:
            pass  # not in the main thread; interruption handled by caller
        try:
            if self.jobs <= 1:
                self._run_serial(deque(cells))
            else:
                self._run_pool(deque((cell, 0.0) for cell in cells))
        finally:
            if old_handler is not _UNSET:
                signal.signal(signal.SIGINT, old_handler)
            self.report.interrupted = self._stop
            self.report.finalize()
            if self.report_path is not None:
                self.report.write(self.report_path)

        if self._stop:
            print(self.report.summary(), file=self.stream or sys.stderr)
            raise KeyboardInterrupt
        if self._failed:
            raise SupervisionError(self._failed, self.report)
        return dict(self._results)

    # -- shared bookkeeping -------------------------------------------- #

    def _on_sigint(self, signum, frame) -> None:
        self._stop = True

    def _charge(self, cell) -> int:
        self._attempts[cell] += 1
        self.report.record(cell).attempts += 1
        return self._attempts[cell]

    def _uncharge(self, cell) -> None:
        """Refund an attempt that never really ran (pool recycled)."""
        self._attempts[cell] -= 1
        self.report.record(cell).attempts -= 1

    def _payload_for(self, cell, attempt: int, in_process: bool) -> dict:
        payload = dict(self.payload_fn(cell))
        if self._hb_dir is not None and not in_process:
            payload["heartbeat"] = self._hb_dir
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(cell, attempt)
            if fault is not None:
                payload["fault"] = fault.as_payload()
                if in_process:
                    payload["fault_in_process"] = True
        return payload

    def _accept(self, cell, result, duration: float) -> bool:
        if self.validate is not None and not self.validate(result):
            return False
        self._results[cell] = result
        self.report.mark_ok(cell, duration)
        if self.on_result is not None:
            self.on_result(cell, result)
        return True

    def _register_failure(self, cell, kind: str) -> bool:
        """Record a failed attempt; True if the cell has retries left."""
        rec = self.report.record(cell)
        rec.errors.append(kind)
        if self._attempts[cell] >= 1 + self.retries:
            rec.status = "failed"
            self._failed[cell] = kind
            return False
        self.report.retried += 1
        return True

    def _backoff_delay(self, cell) -> float:
        return self.backoff * (2 ** max(0, self._attempts[cell] - 1))

    # -- serial (and degraded) mode ------------------------------------ #

    def _run_serial(self, queue: deque) -> None:
        while queue and not self._stop:
            cell = queue.popleft()
            attempt = self._charge(cell)
            payload = self._payload_for(cell, attempt, in_process=True)
            start = time.monotonic()
            self.report.record(cell).queue_seconds += max(
                0.0, start - self._enqueued.pop(cell, start)
            )
            try:
                _, result = self.worker(payload)
            except KeyboardInterrupt:
                self._stop = True
                return
            except Exception as exc:
                if self._register_failure(cell, f"error: {exc!r}"):
                    time.sleep(self._backoff_delay(cell))
                    queue.append(cell)
                    self._enqueued[cell] = time.monotonic()
                continue
            if not self._accept(cell, result, time.monotonic() - start):
                if self._register_failure(cell, "invalid-result"):
                    time.sleep(self._backoff_delay(cell))
                    queue.append(cell)
                    self._enqueued[cell] = time.monotonic()

    # -- pool mode ----------------------------------------------------- #

    def _run_pool(self, pending: deque) -> None:
        if self.hang_grace is not None:
            self._hb_dir = tempfile.mkdtemp(prefix="repro-hb-")
        pool = self._make_pool()
        inflight: dict = {}  # future -> (cell, deadline, submitted_at)
        try:
            while (pending or inflight) and not self._stop:
                pool = self._top_up(pool, pending, inflight)
                if pool is None:
                    self._degrade(pending, inflight)
                    return
                if not inflight:
                    time.sleep(_TICK)
                    continue
                done, _ = wait(
                    list(inflight), timeout=_TICK, return_when=FIRST_COMPLETED
                )
                broken = False
                for fut in done:
                    cell, _deadline, submitted = inflight.pop(fut)
                    try:
                        _, result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        self._fail_or_requeue(cell, "pool-death", pending)
                    except Exception as exc:
                        self._fail_or_requeue(cell, f"error: {exc!r}", pending)
                    else:
                        duration = time.monotonic() - submitted
                        if not self._accept(cell, result, duration):
                            self._fail_or_requeue(cell, "invalid-result", pending)
                if broken:
                    pool = self._recycle(pool, pending, inflight, death=True)
                    if pool is None:
                        self._degrade(pending, inflight)
                        return
                    continue
                pool = self._check_timeouts(pool, pending, inflight)
                if pool is None:
                    self._degrade(pending, inflight)
                    return
        finally:
            self._disarm_watchdog()
            if pool is not None:
                if self._stop or inflight:
                    self._kill_pool(pool)  # don't wait on hung workers
                else:
                    pool.shutdown(wait=True)
            if self._hb_dir is not None:
                shutil.rmtree(self._hb_dir, ignore_errors=True)
                self._hb_dir = None

    def _top_up(self, pool, pending: deque, inflight: dict):
        """Submit ready cells until ``jobs`` are in flight."""
        now = time.monotonic()
        rotations = 0
        while pending and len(inflight) < self.jobs and rotations <= len(pending):
            cell, not_before = pending[0]
            if now < not_before:  # still backing off; look at the next one
                pending.rotate(-1)
                rotations += 1
                continue
            pending.popleft()
            attempt = self._charge(cell)
            payload = self._payload_for(cell, attempt, in_process=False)
            try:
                fut = pool.submit(self.worker, payload)
            except BrokenProcessPool:
                self._uncharge(cell)
                pending.appendleft((cell, 0.0))
                return self._recycle(pool, pending, inflight, death=True)
            self.report.record(cell).queue_seconds += max(
                0.0, now - self._enqueued.pop(cell, now)
            )
            deadline = None if self.timeout is None else now + self.timeout
            inflight[fut] = (cell, deadline, now)
        return pool

    def _check_timeouts(self, pool, pending: deque, inflight: dict):
        if self.timeout is None:
            return pool
        now = time.monotonic()
        overdue = [
            fut
            for fut, (_cell, deadline, _t0) in inflight.items()
            if deadline is not None and now > deadline
        ]
        if not overdue:
            return pool
        for fut in overdue:
            cell, _deadline, _t0 = inflight.pop(fut)
            self.report.timeouts += 1
            self._fail_or_requeue(cell, f"timeout after {self.timeout:g}s", pending)
        # A hung worker cannot be cancelled individually: recycle the
        # pool and resubmit the innocent in-flight cells uncharged.
        return self._recycle(pool, pending, inflight, death=False)

    def _fail_or_requeue(self, cell, kind: str, pending: deque) -> None:
        if self._register_failure(cell, kind):
            not_before = time.monotonic() + self._backoff_delay(cell)
            pending.append((cell, not_before))
            # The cell only becomes *ready* once its backoff elapses.
            self._enqueued[cell] = not_before

    def _recycle(self, pool, pending: deque, inflight: dict, *, death: bool):
        """Kill and respawn the pool; requeue in-flight cells uncharged.

        Returns the fresh pool, or ``None`` once unexpected deaths
        exceed ``max_pool_deaths`` (the caller then degrades to serial).
        """
        now = time.monotonic()
        for fut in list(inflight):
            cell, _deadline, _t0 = inflight.pop(fut)
            self._uncharge(cell)
            pending.append((cell, 0.0))
            self._enqueued[cell] = now
        self._kill_pool(pool)
        if death:
            self.report.pool_deaths += 1
            self._pool_deaths += 1
            if self._pool_deaths > self.max_pool_deaths:
                return None
        return self._make_pool()

    def _make_pool(self):
        """Spawn a fresh pool and (re)arm the heartbeat watchdog on it.

        Heartbeat files are cleared first — pids can be reused across
        pool generations, and a stale "busy" beat from a dead worker
        must never condemn its successor.
        """
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        if self._hb_dir is not None:
            from repro.service.durability import WorkerWatchdog, clear_heartbeats

            self._disarm_watchdog()
            clear_heartbeats(self._hb_dir)
            self._watchdog = WorkerWatchdog(
                self._hb_dir,
                self.hang_grace,
                lambda: getattr(pool, "_processes", None),
                on_kill=self._on_watchdog_kill,
            ).start()
        return pool

    def _on_watchdog_kill(self, pid: int) -> None:
        self.report.watchdog_kills += 1

    def _disarm_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None

    def _kill_pool(self, pool) -> None:
        # Grab worker handles before shutdown clears them; terminate so
        # hung workers (sleeping past their timeout) die immediately.
        procs_attr = getattr(pool, "_processes", None)
        procs = list(procs_attr.values()) if isinstance(procs_attr, dict) else []
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()

    def _degrade(self, pending: deque, inflight: dict) -> None:
        """Finish the sweep in-process after repeated pool deaths."""
        self._disarm_watchdog()
        self.report.degraded_serial = True
        now = time.monotonic()
        for fut in list(inflight):
            cell, _deadline, _t0 = inflight.pop(fut)
            self._uncharge(cell)
            pending.append((cell, 0.0))
            self._enqueued[cell] = now
        self._run_serial(deque(cell for cell, _nb in pending))
