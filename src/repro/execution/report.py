"""What one batch of cells did: the :class:`RunReport` manifest.

A :class:`RunReport` records per-cell status, source (cache /
simulated), attempts, durations and errors, plus run-level counters
(timeouts, pool deaths, retries).  The batch scheduler
owns one per service and rewrites it as JSON next to the result cache
after every batch; it is the ground truth for "what remains" when an
interrupted sweep is re-invoked.

:class:`ExecutorError` is the one retry-exhaustion exception: every
execution backend raises it, carrying the failed cells and the report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


def cell_parts(cell) -> tuple[tuple, str]:
    """``(codes, scheme)`` of a cell, whatever its spelling.

    The batch service schedules :class:`repro.api.spec.RunSpec` objects;
    executors driven directly may schedule plain ``(codes, scheme)``
    tuples.  Reports and metrics render both the same way.
    """
    mix = getattr(cell, "mix", None)
    if mix is not None:
        return tuple(mix), cell.scheme
    codes, scheme = cell
    return tuple(codes), scheme


def cell_name(cell) -> str:
    """Human-readable ``471+444/avgcc`` form of a cell (a spec's
    :attr:`~repro.api.spec.RunSpec.name`, which also shows its
    ``l2_ways`` or ``kernel`` and every key field off its default)."""
    if hasattr(cell, "name"):
        return cell.name
    codes, scheme = cell_parts(cell)
    return f"{'+'.join(str(c) for c in codes)}/{scheme}"


@dataclass
class CellRecord:
    """One cell's lifecycle inside a batch."""

    cell: tuple
    status: str = "pending"  # pending | ok | failed
    source: str = ""  # cache | simulated (set when status == ok)
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
            "cell": cell_name(self.cell),
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
    """Manifest of a sweep: per-cell records + run counters.

    Serialised as JSON next to the result cache, the report is both the
    human-readable account of a run (``summary()``) and the machine
    check for resume tests: ``counts["cache"]`` vs ``counts["simulated"]``
    says exactly how much work a re-invocation actually redid.
    """

    #: v4: CellRecord gains ``phases`` (per-phase seconds from the span
    #: tracer); absent/empty when tracing is off.  v5 (5.0.0): ``counts``
    #: loses ``memory``, an outcome no cell ever had.  v6 (6.0.0): the
    #: watchdog kill counter is gone with the hang grace, and ``counts``
    #: loses ``hits``, a copy of ``cache``.
    VERSION = 6

    def __init__(self, config: Optional[dict] = None) -> None:
        self.config = dict(config or {})
        self.records: dict = {}
        self.pool_deaths = 0
        self.timeouts = 0
        self.retried = 0
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

    def mark_hit(self, cell) -> None:
        """Cell satisfied from the disk result cache, without simulating."""
        rec = self.record(cell)
        rec.status, rec.source = "ok", "cache"

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
            f"run report: {c['total']} cells — {c['cache']} cached, "
            f"{c['simulated']} simulated, {c['failed']} failed, "
            f"{c['pending']} pending",
            f"  attempts {self.total_attempts} ({self.retried} retried), "
            f"{self.timeouts} timeouts, {self.pool_deaths} pool deaths"
            + (", degraded to serial" if self.degraded_serial else ""),
        ]
        if self.interrupted:
            lines.append(
                "  interrupted — completed cells are on disk; re-run the "
                "same command to resume from the cache"
            )
        return "\n".join(lines)


class ExecutorError(RuntimeError):
    """Cells exhausted their retry budget under some executor.

    ``failed`` maps each cell to the kind of its last failure;
    ``report`` is the full :class:`RunReport`.
    """

    def __init__(self, failed: dict, report: RunReport) -> None:
        self.failed = dict(failed)
        self.report = report
        detail = "; ".join(
            f"{cell_name(cell)}: {kind}" for cell, kind in self.failed.items()
        )
        super().__init__(
            f"{len(self.failed)} cell(s) failed after retries — {detail}"
        )
