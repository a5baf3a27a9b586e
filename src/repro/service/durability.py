"""Durability for the batch service: the write-ahead journal.

The scheduler in :mod:`repro.service.scheduler` made batches *correct*
(dedup, priorities, bounded retry); this module makes them survive the
failure a long campaign actually hits — the serving process dying
mid-batch.  (A worker wedged mid-cell is the executors' business: the
timeout is a rule of their
:class:`~repro.service.executor.AttemptLedger`.)

:class:`BatchJournal` is a write-ahead JSONL journal of every spec's
lifecycle (``submitted`` / ``started`` / ``done`` / ``failed`` /
``cancelled``).  Records are checksummed per line and fsync'd in
batches, so a ``kill -9`` loses at most the tail of *terminal* events —
never an accepted submission.  :meth:`BatchJournal.replay` rebuilds the
outstanding work set from the file (torn or corrupt lines are skipped,
not fatal), and :meth:`BatchJournal.compact` rewrites the file down to
just that set on a clean close.

Everything is stdlib-only, and none of it touches the simulation hot
path: journal appends are buffered in memory.  Fault-free results stay
bit-identical.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Bump when the journal record layout changes; replay skips records
#: from other versions instead of misreading them.
JOURNAL_FORMAT_VERSION = 1

#: Journal file name, created inside the journal directory (which by
#: default is the result-cache directory — one root for all run state).
JOURNAL_FILENAME = "batch_journal.jsonl"

#: Journal events a spec can go through.  ``submitted`` carries the full
#: spec payload; the rest reference it by cache key.
JOURNAL_EVENTS = ("submitted", "started", "done", "failed", "cancelled")

#: Events that close out a spec's journal lifecycle.
_TERMINAL = frozenset(("done", "failed", "cancelled"))

#: Buffered records that force a flush+fsync even without an explicit
#: flush point, bounding how much terminal-event history a crash can
#: lose.  Submissions are made durable explicitly before execution.
DEFAULT_FLUSH_EVERY = 64


class JournalError(RuntimeError):
    """The journal directory is unusable or holds no replayable state."""


# --------------------------------------------------------------------- #
# Write-ahead journal
# --------------------------------------------------------------------- #


def _checksum(body: str) -> str:
    import hashlib  # here, not at module level: it maps OpenSSL

    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def _seal(record: dict) -> str:
    """Serialize a record with an embedded checksum over its body."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return body[:-1] + f',"sha":"{_checksum(body)}"}}'


def _unseal(line: str) -> Optional[dict]:
    """Parse and verify one journal line; ``None`` if torn or corrupt."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    digest = record.pop("sha", None)
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if digest != _checksum(body):
        return None
    return record


@dataclass
class JournalReplay:
    """The outstanding work set rebuilt from a journal file.

    ``pending`` lists ``(key, spec_dict, priority)`` for every spec
    whose last event was non-terminal (``submitted`` or ``started``) —
    the exact set a resumed scheduler must re-enqueue.  ``done_keys``
    are cache keys that reached ``done``; ``counts`` tallies every
    event seen; ``corrupt_lines`` counts skipped torn/invalid lines.
    """

    pending: list = field(default_factory=list)
    done_keys: set = field(default_factory=set)
    counts: dict = field(default_factory=dict)
    corrupt_lines: int = 0

    @property
    def total(self) -> int:
        return len(self.pending) + len(self.done_keys)


class BatchJournal:
    """Append-only, checksummed JSONL journal of batch lifecycles.

    Appends are buffered in memory and written + fsync'd in batches:
    every ``flush_every`` records, at explicit :meth:`flush` points
    (the scheduler flushes right before handing a cell to its executor,
    making its ``submitted`` and ``started`` records durable before any
    work starts, and again when a busy period ends, for the terminal
    records), and on :meth:`close`.  One fsync covers many records,
    keeping the journal entirely off the simulation hot path.

    The file tolerates its own failure modes: a torn final line (killed
    mid-write) or a bit-flipped record fails its per-line checksum and
    is skipped by :meth:`replay` — losing one terminal event at worst,
    which the result cache's content addressing makes harmless.
    """

    def __init__(
        self,
        journal_dir: str | os.PathLike,
        *,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        fsync: bool = True,
    ) -> None:
        self.dir = Path(journal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / JOURNAL_FILENAME
        self.flush_every = max(1, int(flush_every))
        self.fsync = fsync
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._file = open(self.path, "a", encoding="utf-8")
        self.appended = 0
        self.flushes = 0

    # -- writing ------------------------------------------------------- #

    def append(
        self,
        event: str,
        key: str,
        *,
        spec: Optional[dict] = None,
        priority: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Buffer one lifecycle record (flushes itself past the batch bound)."""
        if event not in JOURNAL_EVENTS:
            raise ValueError(
                f"unknown journal event {event!r}; expected one of {JOURNAL_EVENTS}"
            )
        record: dict = {
            "v": JOURNAL_FORMAT_VERSION,
            "event": event,
            "key": key,
            "ts": round(time.time(), 3),
        }
        if spec is not None:
            record["spec"] = spec
        if priority is not None:
            record["priority"] = priority
        if detail is not None:
            record["detail"] = detail
        line = _seal(record)
        with self._lock:
            self._buffer.append(line)
            self.appended += 1
            if len(self._buffer) >= self.flush_every:
                self._flush_locked()

    def flush(self) -> None:
        """Write and fsync everything buffered (a durability point)."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer or self._file.closed:
            return
        self._file.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()
        self._file.flush()
        if self.fsync:
            try:
                os.fsync(self._file.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
        self.flushes += 1

    def close(self, *, compact: bool = True) -> None:
        """Flush; optionally compact (clean-close path) and close the file."""
        self.flush()
        if compact:
            self.compact()
        with self._lock:
            if not self._file.closed:
                self._file.close()

    # -- reading / compaction ------------------------------------------ #

    def replay(self) -> JournalReplay:
        """Rebuild the outstanding work set from the file (see module doc)."""
        return replay_journal(self.dir)

    def compact(self) -> int:
        """Rewrite the journal down to its outstanding submissions.

        Terminal specs disappear entirely; pending ones are rewritten
        as fresh ``submitted`` records.  After a fully drained close the
        file is empty.  Returns the number of records kept.
        """
        with self._lock:
            self._flush_locked()
            replay = replay_journal(self.dir)
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for key, spec_dict, priority in replay.pending:
                        record = {
                            "v": JOURNAL_FORMAT_VERSION,
                            "event": "submitted",
                            "key": key,
                            "ts": round(time.time(), 3),
                            "spec": spec_dict,
                            "priority": priority,
                        }
                        fh.write(_seal(record) + "\n")
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            finally:
                tmp.unlink(missing_ok=True)
            # Reopen the append handle on the compacted file.
            if not self._file.closed:
                self._file.close()
            self._file = open(self.path, "a", encoding="utf-8")
            return len(replay.pending)


def replay_journal(journal_dir: str | os.PathLike) -> JournalReplay:
    """Replay a journal directory into its outstanding work set.

    Standalone so ``repro batch --resume`` can inspect state without
    constructing (and thereby touching) a live journal first.  Raises
    :class:`JournalError` when no journal file exists.
    """
    path = Path(journal_dir) / JOURNAL_FILENAME
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JournalError(
            f"no batch journal at {path} (was the batch run with a "
            f"--cache-dir / journal enabled?): {exc}"
        ) from None
    replay = JournalReplay()
    # key -> (state, spec_dict, priority); dict order = first submission.
    lifecycle: dict[str, list] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        record = _unseal(line)
        if record is None:
            replay.corrupt_lines += 1
            continue
        if record.get("v") != JOURNAL_FORMAT_VERSION:
            replay.corrupt_lines += 1
            continue
        event = record.get("event")
        key = record.get("key")
        if event not in JOURNAL_EVENTS or not isinstance(key, str):
            replay.corrupt_lines += 1
            continue
        replay.counts[event] = replay.counts.get(event, 0) + 1
        entry = lifecycle.get(key)
        if event == "submitted":
            spec = record.get("spec")
            priority = int(record.get("priority") or 0)
            if entry is None:
                lifecycle[key] = [event, spec, priority]
            else:
                entry[0] = event
                if spec is not None:
                    entry[1] = spec
                entry[2] = priority
        elif entry is not None:
            entry[0] = event
    for key, (state, spec, priority) in lifecycle.items():
        if state in _TERMINAL:
            if state == "done":
                replay.done_keys.add(key)
            continue
        if spec is None:
            replay.corrupt_lines += 1  # started/… with no surviving spec
            continue
        replay.pending.append((key, spec, priority))
    return replay
