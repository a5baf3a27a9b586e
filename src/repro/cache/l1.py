"""Private write-through L1 filter cache.

The paper's cores have private 32 kB write-through L1s in front of inclusive
private L2s.  For the LLC policies under study the L1's only relevant roles
are (a) filtering the access stream the L2 sees and (b) being
back-invalidated when the inclusive L2 drops a line.  This module models
exactly that: LRU, write-through (stores never create dirty L1 state),
write-allocate, with an ``invalidate`` hook for inclusion.

Membership and recency are the whole L1 model, so each set is an ordered
mapping keyed by line address with the most recently used key *last*:
an allocation is one store and an eviction one ``popitem(last=False)``.
The value is the inclusive L2's :class:`~repro.cache.cache.Line` for that
address (``None`` when the caller has none).  The engine reads it on a
store hit: a line already in M needs no trip to the L2.  Inclusion keeps
the pointer honest — the L2 back-invalidates this L1 whenever it drops a
line — and callers still compare ``line.addr`` before trusting it.

The engine inlines :meth:`L1Cache.access` and the private hierarchy
inlines :meth:`~L1Cache.allocate` and :meth:`~L1Cache.invalidate` on
``_sets``, ``_mru`` and ``back_invalidations``, so the class keeps no
other state those copies would have to update: ``len()`` sums the sets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.cache.cache import Line
from repro.cache.geometry import CacheGeometry


class L1Cache:
    """A small LRU filter cache in front of a private L2."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._mask = geometry.sets - 1
        self._ways = geometry.ways
        #: Per-set recency stacks: ordered ``line addr -> L2 Line``
        #: mappings, last key = MRU.  The L1 filters every single trace
        #: record, so the engine probes these directly.
        self._sets: list[OrderedDict[int, Optional[Line]]] = [
            OrderedDict() for _ in range(geometry.sets)
        ]
        # Per-set MRU line address: consecutive touches of the same line
        # (the dominant pattern under dwell) hit with one list index and
        # one compare, skipping the stack update that would be a no-op.
        self._mru = [-1] * geometry.sets
        self.hits = 0
        self.misses = 0
        self.back_invalidations = 0

    def access(self, line_addr: int) -> bool:
        """Look up a line, promoting on hit.  Returns True on hit.

        Loads and stores behave identically here: the L1 is write-through,
        so a store hit only generates L2 write traffic (accounted by the
        caller) and never dirties the L1.
        """
        set_idx = line_addr & self._mask
        if self._mru[set_idx] == line_addr:
            self.hits += 1
            return True
        lines = self._sets[set_idx]
        if line_addr in lines:
            lines.move_to_end(line_addr)
            self._mru[set_idx] = line_addr
            self.hits += 1
            return True
        self.misses += 1
        return False

    def allocate(self, line_addr: int, line: Optional[Line] = None) -> None:
        """Install a line fetched from the L2 (silent LRU eviction).

        ``line`` is the L2's copy, kept as the entry's value.
        """
        set_idx = line_addr & self._mask
        lines = self._sets[set_idx]
        if line_addr in lines:
            return
        if len(lines) >= self._ways:
            lines.popitem(last=False)
        lines[line_addr] = line
        self._mru[set_idx] = line_addr

    def invalidate(self, line_addr: int) -> bool:
        """Back-invalidation from the inclusive L2.  Returns True if held."""
        set_idx = line_addr & self._mask
        lines = self._sets[set_idx]
        if line_addr not in lines:
            return False
        del lines[line_addr]
        if self._mru[set_idx] == line_addr:
            self._mru[set_idx] = -1
        self.back_invalidations += 1
        return True

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr & self._mask]

    def resident_addrs(self) -> Iterator[int]:
        """Every line address currently held (inclusion checks)."""
        for lines in self._sets:
            yield from lines

    def __len__(self) -> int:
        return sum(map(len, self._sets))
