"""Structured event tracing: a bounded ring buffer of typed events.

The simulator's interesting moments are sparse relative to its access
stream — spills, swaps, insertion-policy flips, re-grains, QoS
throttles.  :class:`EventTracer` records them as typed
:class:`TraceEvent` records in a :class:`~repro.obs.ring.Ring`, so a
runaway run can never exhaust memory: once full, the oldest events are
dropped (and counted) while the newest are kept.

Events export as JSONL (one JSON object per line) for replay, diffing
and ad-hoc ``jq`` analysis; ``repro trace`` on the CLI wires this to a
real simulation.

Event kinds and fields
----------------------
``spill``         ``src``, ``dst``, ``set``, ``addr`` — a last-copy
                  victim moved to a receiver set in a peer cache.
``swap``          same fields — the victim took the slot a migrating
                  line freed (ASCC Section 3.2).
``receive_flip``  ``cache``, ``set``, ``mode`` (``"capacity"`` or
                  ``"mru"``) — a set group's insertion policy flipped.
``regrain``       ``cache``, ``old_d``, ``new_d``, ``counters`` — AVGCC
                  changed a cache's counter granularity.
``qos_throttle``  ``cache``, ``ratio``, ``previous`` — the QoS ratio
                  (the SSL miss increment) changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.obs.observer import Observer
from repro.obs.ring import DEFAULT_CAPACITY, Ring

#: The event kinds the instrumented simulator emits today.  ``emit``
#: accepts unknown kinds (forward compatibility), but CLI filters
#: validate against this list so typos fail loudly.
KNOWN_KINDS = ("spill", "swap", "receive_flip", "regrain", "qos_throttle")


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One typed event: a global sequence number, a kind, its fields."""

    seq: int
    kind: str
    data: dict

    @property
    def name(self) -> str:
        return self.kind

    def to_dict(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, **self.data}


class EventTracer(Ring, Observer):
    """Observer recording typed events in a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events are dropped (and counted in
        :attr:`dropped`) once the run emits more than this.
    kinds:
        Optional whitelist: only these event kinds are recorded.  Kinds
        outside the filter still advance the sequence number, so ``seq``
        gaps in the export reveal how much was filtered out.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(capacity)
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.emitted = 0

    def emit(self, kind: str, **data) -> None:
        self.emitted += 1
        if self.kinds is not None and kind not in self.kinds:
            return
        self.append(TraceEvent(self.emitted, kind, data))
