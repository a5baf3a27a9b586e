"""The one bounded record buffer behind event and span tracing.

A :class:`Ring` keeps the newest ``capacity`` records in a
``deque(maxlen=capacity)``: once full, the oldest record is dropped (and
counted) instead of raising or blocking, so a runaway run can never
exhaust memory — and the end of a run, where a divergence is usually
diagnosed, is what stays.  Records expose ``name`` and ``to_dict()``;
the ring counts them per name and exports them as JSONL, one sorted-key
object per line.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, deque
from typing import IO, Iterator

#: Default ring capacity: enough for every record of a laptop-sized run.
DEFAULT_CAPACITY = 65_536


class Ring:
    """Thread-safe bounded buffer of records with drop accounting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if not isinstance(capacity, int) or capacity <= 0:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self.items: deque = deque(maxlen=capacity)
        #: Records ever appended, buffered or since dropped.
        self.recorded = 0
        self._lock = threading.Lock()

    def _append_locked(self, item) -> None:
        self.recorded += 1
        self.items.append(item)

    def append(self, item) -> None:
        with self._lock:
            self._append_locked(item)

    def snapshot(self) -> list:
        """The buffered records, oldest first."""
        with self._lock:
            return list(self.items)

    @property
    def dropped(self) -> int:
        """Records pushed out of the full ring."""
        return self.recorded - len(self.items)

    def counts(self) -> dict[str, int]:
        """Buffered records per name."""
        return dict(Counter(item.name for item in self.snapshot()))

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write one sorted-key JSON object per line; returns the line count."""
        items = self.snapshot()
        for item in items:
            stream.write(json.dumps(item.to_dict(), sort_keys=True))
            stream.write("\n")
        return len(items)

    def __iter__(self) -> Iterator:
        return iter(self.snapshot())

    def __len__(self) -> int:
        return len(self.items)
