"""Set-associative cache arrays with explicit recency stacks.

Two interchangeable storage backends implement the same contract (the
"kernel v2" tentpole):

* :class:`SlotCacheArray` — the default.  One flat ``addr -> Line`` index
  per array (addresses map to unique sets, so one hash probe replaces the
  per-set mapping) plus per-set recency stacks of pooled line slots kept
  as small C lists (MRU first).  Hits touch one dict probe and, only when
  the line is not already MRU, one C-speed splice of an ≤8-entry list;
  fills recycle evicted :class:`Line` slots through a free pool via
  :meth:`~SlotCacheArray.fill_fields`/:meth:`~SlotCacheArray.release`,
  so the steady-state hit/promote/evict path allocates nothing and never
  rehashes an ordered mapping.  A simulated miss makes two calls:
  :meth:`~SlotCacheArray.take_victim` detaches a full set's victim and
  returns its slot to the pool, :meth:`~SlotCacheArray.install` fills a
  free way from the pool and returns the new line.
* :class:`DictCacheArray` — the previous implementation, kept verbatim as
  a reference: each set is an ordered mapping ``line addr -> Line`` whose
  iteration order is the recency stack (first key = MRU).  It exists for
  differential testing (``tests/test_cache_array_oracle.py`` drives both
  backends with identical op streams) and as a config-selectable fallback.

Both keep the insertion-position semantics of BIP/SABIP direct —
inserting a line at position *p* places it *p* steps from the top of the
stack — and when constructed with a
:class:`~repro.coherence.directory.PresenceDirectory` they keep the
chip-wide presence map in sync on every fill, eviction and invalidation.
The slot backend writes the directory's holder map directly (its cache id
is validated once, at construction); the reference backend goes through
the directory's checked ``add``/``remove``.

``CacheArray`` names the default backend; :func:`resolve_backend` maps a
config string (``"slot"``/``"dict"``) to a class, honouring the
``REPRO_CACHE_BACKEND`` environment variable for the default.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from itertools import islice
from typing import Iterator, Optional

from repro.cache.geometry import CacheGeometry
from repro.coherence.directory import PresenceDirectory
from repro.coherence.protocol import Mesi


class Line:
    """One cache line: address, MESI state and scheme-specific flags.

    ``spilled`` marks lines that entered this cache through a spill from a
    peer (used for migration-on-hit and the hits-per-spill statistic).
    ``shared_region`` marks lines living in the ECC shared region.
    ``prefetched`` marks lines brought in by the stride prefetcher that have
    not yet been demanded.
    """

    __slots__ = ("addr", "state", "spilled", "shared_region", "prefetched")

    def __init__(
        self,
        addr: int,
        state: Mesi,
        spilled: bool = False,
        shared_region: bool = False,
        prefetched: bool = False,
    ) -> None:
        self.addr = addr
        self.state = state
        self.spilled = spilled
        self.shared_region = shared_region
        self.prefetched = prefetched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (
                ("s", self.spilled),
                ("r", self.shared_region),
                ("p", self.prefetched),
            )
            if on
        )
        return f"Line({self.addr:#x},{self.state.value}{',' + flags if flags else ''})"


class SlotCacheArray:
    """A set-associative cache: flat line index + per-set slot stacks.

    Parameters
    ----------
    geometry:
        Shape of the cache.
    cache_id:
        Identifier used in the presence directory (ignored when
        ``directory`` is ``None``).
    directory:
        Optional chip-wide presence map kept in sync with the contents.
        Fills, evictions and invalidations update its holder map in
        place, so ``cache_id`` is range-checked here, once.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        cache_id: int = 0,
        directory: Optional[PresenceDirectory] = None,
    ) -> None:
        self.geometry = geometry
        self.cache_id = cache_id
        self.directory = directory
        #: The directory's ``line addr -> holder ids`` map, or ``None``.
        self._holders: Optional[dict[int, set[int]]] = None
        if directory is not None:
            directory._check_id(cache_id)
            self._holders = directory._holders
        #: ``line_addr & set_mask`` is the set index (sets are a power of two).
        self.set_mask = geometry.sets - 1
        self._ways = geometry.ways
        #: Per-set recency stacks, MRU first.  The stacks hold the *same*
        #: Line objects as ``_index``; a stack never exceeds the ways, so
        #: every splice is a C memmove over at most ``ways`` pointers.
        self._stacks: list[list[Line]] = [[] for _ in range(geometry.sets)]
        #: One flat ``addr -> Line`` map for the whole array: a line
        #: address selects a unique set, so a single hash probe answers
        #: probe/contains/lookup for every set at once.
        self._index: dict[int, Line] = {}
        #: Free slots recycled by :meth:`release` and reused by
        #: :meth:`fill_fields`: the demand alloc/evict path reuses one
        #: Line object per set-way instead of allocating per fill.
        self._pool: list[Line] = []

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, line_addr: int, promote: bool = True) -> Optional[Line]:
        """Find ``line_addr``; optionally promote it to MRU.

        Returns the :class:`Line` on a hit, ``None`` on a miss.
        """
        line = self._index.get(line_addr)
        if line is not None and promote:
            stack = self._stacks[line_addr & self.set_mask]
            if stack[0] is not line:
                stack.remove(line)
                stack.insert(0, line)
        return line

    def probe(self, line_addr: int) -> Optional[Line]:
        """Find ``line_addr`` without touching recency state."""
        return self._index.get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._index

    def recency_position(self, line_addr: int) -> Optional[int]:
        """Stack position of a line (0 = MRU), or ``None`` if absent."""
        line = self._index.get(line_addr)
        if line is None:
            return None
        return self._stacks[line_addr & self.set_mask].index(line)

    # ------------------------------------------------------------------ #
    # Fill / evict / invalidate
    # ------------------------------------------------------------------ #

    def fill(
        self,
        line: Line,
        position: int,
        victim_position: Optional[int] = None,
    ) -> Optional[Line]:
        """Insert ``line`` at recency ``position``; return the victim, if any.

        When the set is full, the line at ``victim_position`` (default: the
        LRU end) is evicted first.  ``position`` is clamped to the resulting
        set occupancy so "insert at LRU" works in a partially filled set.
        The line must not already be present.
        """
        addr = line.addr
        index = self._index
        if addr in index:
            raise ValueError(f"line {addr:#x} already present")
        stack = self._stacks[addr & self.set_mask]
        victim: Optional[Line] = None
        occupancy = len(stack)
        holders = self._holders
        if occupancy >= self._ways:
            victim = stack.pop(
                occupancy - 1 if victim_position is None else victim_position
            )
            del index[victim.addr]
            if holders is not None:
                # Inlined PresenceDirectory.remove (KeyError on desync).
                held = holders[victim.addr]
                held.remove(self.cache_id)
                if not held:
                    del holders[victim.addr]
            occupancy -= 1
        if position <= 0:
            stack.insert(0, line)
        elif position >= occupancy:
            stack.append(line)
        else:
            stack.insert(position, line)
        index[addr] = line
        if holders is not None:
            held = holders.get(addr)
            if held is None:
                holders[addr] = {self.cache_id}
            else:
                held.add(self.cache_id)
        return victim

    def fill_fields(
        self,
        addr: int,
        state: Mesi,
        spilled: bool = False,
        shared_region: bool = False,
        prefetched: bool = False,
        *,
        position: int,
        victim_position: Optional[int] = None,
    ) -> Optional[Line]:
        """Allocation-free :meth:`fill`: builds the line from a pooled slot.

        Identical semantics to ``fill(Line(addr, state, ...), ...)`` except
        the Line object is recycled from the free pool when one is
        available (see :meth:`release`).
        """
        pool = self._pool
        if pool:
            line = pool.pop()
            line.addr = addr
            line.state = state
            line.spilled = spilled
            line.shared_region = shared_region
            line.prefetched = prefetched
        else:
            line = Line(addr, state, spilled, shared_region, prefetched)
        return self.fill(line, position, victim_position)

    def release(self, line: Line) -> None:
        """Return a detached line (an evict/invalidate result) to the pool.

        The caller must hold the only reference: the slot's fields are
        overwritten by the next :meth:`fill_fields`.
        """
        self._pool.append(line)

    def evict(self, line_addr: int) -> Line:
        """Remove a specific line (e.g. the swap partner) and return it."""
        line = self._index.pop(line_addr, None)
        if line is None:
            raise KeyError(f"line {line_addr:#x} not present")
        stack = self._stacks[line_addr & self.set_mask]
        if stack[-1] is line:  # the usual victim: the LRU end, no scan
            stack.pop()
        else:
            stack.remove(line)
        holders = self._holders
        if holders is not None:
            held = holders[line_addr]
            held.remove(self.cache_id)
            if not held:
                del holders[line_addr]
        return line

    def invalidate(self, line_addr: int) -> Optional[Line]:
        """Remove a line if present (coherence invalidation, back-inval)."""
        line = self._index.pop(line_addr, None)
        if line is None:
            return None
        self._stacks[line_addr & self.set_mask].remove(line)
        holders = self._holders
        if holders is not None:
            held = holders[line_addr]
            held.remove(self.cache_id)
            if not held:
                del holders[line_addr]
        return line

    def victim_candidate(self, set_idx: int, position: Optional[int] = None) -> Optional[Line]:
        """Peek at the line that :meth:`fill` would evict (LRU by default).

        Returns ``None`` while the set still has free ways.
        """
        stack = self._stacks[set_idx]
        occupancy = len(stack)
        if occupancy < self._ways:
            return None
        if position is None:
            return stack[occupancy - 1]
        if not 0 <= position < occupancy:
            raise IndexError(f"victim position {position} out of range")
        return stack[position]

    # ------------------------------------------------------------------ #
    # Miss path: one call to make room, one to fill
    # ------------------------------------------------------------------ #

    def take_victim(self, set_idx: int, position: Optional[int] = None) -> Optional[Line]:
        """Detach a full set's victim (LRU, or the line at ``position``).

        The victim leaves the stack, the index and the directory, and its
        slot goes straight back to the pool: the returned line stays
        readable until the next :meth:`install` or :meth:`fill_fields` on
        this array.  Returns ``None`` while the set still has free ways.
        """
        stack = self._stacks[set_idx]
        occupancy = len(stack)
        if occupancy < self._ways:
            return None
        if position is None:
            line = stack.pop()
        elif 0 <= position < occupancy:
            line = stack.pop(position)
        else:
            raise IndexError(f"victim position {position} out of range")
        addr = line.addr
        del self._index[addr]
        holders = self._holders
        if holders is not None:
            held = holders[addr]
            held.remove(self.cache_id)
            if not held:
                del holders[addr]
        self._pool.append(line)
        return line

    def install(
        self, addr: int, state: Mesi, spilled: bool, shared_region: bool, *, position: int
    ) -> Line:
        """Fill a free way of ``addr``'s set from the pool; return the line.

        The set must have a free way (a full one needs :meth:`take_victim`
        first) and ``addr`` must be absent.  ``position`` is clamped to the
        set's occupancy, as in :meth:`fill`.
        """
        stack = self._stacks[addr & self.set_mask]
        occupancy = len(stack)
        if occupancy >= self._ways:
            raise ValueError(f"set of line {addr:#x} has no free way")
        pool = self._pool
        if pool:
            line = pool.pop()
            line.addr = addr
            line.state = state
            line.spilled = spilled
            line.shared_region = shared_region
            line.prefetched = False
        else:
            line = Line(addr, state, spilled, shared_region)
        if position <= 0:
            stack.insert(0, line)
        elif position >= occupancy:
            stack.append(line)
        else:
            stack.insert(position, line)
        self._index[addr] = line
        holders = self._holders
        if holders is not None:
            held = holders.get(addr)
            if held is None:
                holders[addr] = {self.cache_id}
            else:
                held.add(self.cache_id)
        return line

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def set_lines(self, set_idx: int) -> list[Line]:
        """The recency stack of a set (MRU first), as a snapshot list."""
        return list(self._stacks[set_idx])

    def stack_view(self, set_idx: int):
        """The live recency stack of a set (MRU first), without a copy.

        A sized iterable to read (``len``, iteration, ``reversed``) before
        the set changes again; never mutate it.
        """
        return self._stacks[set_idx]

    def occupancy(self, set_idx: int) -> int:
        return len(self._stacks[set_idx])

    def check_integrity(self, set_idx: int) -> None:
        """Raise ``AssertionError`` if the set's internal state is corrupt.

        Verifies the backend-specific invariants the public API can hide:
        the recency stack is a duplicate-free permutation of the set's
        indexed lines, every line maps to this set, and occupancy never
        exceeds the associativity.  Used by the runtime sanitizer
        (:mod:`repro.verify`); read-only.
        """
        stack = self._stacks[set_idx]
        if len(stack) > self._ways:
            raise AssertionError(
                f"set {set_idx}: {len(stack)} lines exceed {self._ways} ways"
            )
        seen: set[int] = set()
        for line in stack:
            if line.addr in seen:
                raise AssertionError(
                    f"set {set_idx}: duplicate tag {line.addr:#x}"
                )
            seen.add(line.addr)
            if line.addr & self.set_mask != set_idx:
                raise AssertionError(
                    f"set {set_idx}: line {line.addr:#x} belongs to set "
                    f"{line.addr & self.set_mask}"
                )
            if self._index.get(line.addr) is not line:
                raise AssertionError(
                    f"set {set_idx}: stack and index disagree for "
                    f"{line.addr:#x}"
                )

    def iter_lines(self) -> Iterator[Line]:
        for stack in self._stacks:
            yield from stack

    def __len__(self) -> int:
        """Number of valid lines currently stored."""
        return len(self._index)


class DictCacheArray:
    """Reference backend: each set is an ordered ``addr -> Line`` mapping.

    This is the pre-kernel-v2 implementation, kept bit-for-bit so the
    differential fuzz harness can drive both backends with identical op
    streams, and selectable via ``SystemConfig.cache_backend = "dict"``.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        cache_id: int = 0,
        directory: Optional[PresenceDirectory] = None,
    ) -> None:
        self.geometry = geometry
        self.cache_id = cache_id
        self.directory = directory
        self.set_mask = geometry.sets - 1
        self._ways = geometry.ways
        self._sets: list[OrderedDict[int, Line]] = [
            OrderedDict() for _ in range(geometry.sets)
        ]
        self._len = 0

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, line_addr: int, promote: bool = True) -> Optional[Line]:
        lines = self._sets[line_addr & self.set_mask]
        line = lines.get(line_addr)
        if line is not None and promote:
            lines.move_to_end(line_addr, last=False)
        return line

    def probe(self, line_addr: int) -> Optional[Line]:
        return self._sets[line_addr & self.set_mask].get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr & self.set_mask]

    def recency_position(self, line_addr: int) -> Optional[int]:
        lines = self._sets[line_addr & self.set_mask]
        if line_addr not in lines:
            return None
        for pos, addr in enumerate(lines):
            if addr == line_addr:
                return pos
        raise AssertionError("set desync")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Fill / evict / invalidate
    # ------------------------------------------------------------------ #

    def fill(
        self,
        line: Line,
        position: int,
        victim_position: Optional[int] = None,
    ) -> Optional[Line]:
        addr = line.addr
        lines = self._sets[addr & self.set_mask]
        if addr in lines:
            raise ValueError(f"line {addr:#x} already present")
        victim: Optional[Line] = None
        if len(lines) >= self._ways:
            if victim_position is None or victim_position == len(lines) - 1:
                victim = lines.popitem()[1]
            else:
                victim_addr = next(islice(iter(lines), victim_position, None))
                victim = lines.pop(victim_addr)
            self._drop(victim)
        occupancy = len(lines)
        lines[addr] = line  # appended at the LRU end
        if position <= 0:
            lines.move_to_end(addr, last=False)
        elif position < occupancy:
            # Splice: re-append the keys that must stay behind the new line.
            move = lines.move_to_end
            for key in list(islice(iter(lines), position, occupancy)):
                move(key)
        self._len += 1
        if self.directory is not None:
            self.directory.add(addr, self.cache_id)
        return victim

    def fill_fields(
        self,
        addr: int,
        state: Mesi,
        spilled: bool = False,
        shared_region: bool = False,
        prefetched: bool = False,
        *,
        position: int,
        victim_position: Optional[int] = None,
    ) -> Optional[Line]:
        """Field-based fill (no pooling: the reference stays allocation-per-fill)."""
        return self.fill(
            Line(addr, state, spilled, shared_region, prefetched),
            position,
            victim_position,
        )

    def release(self, line: Line) -> None:
        """No-op: the reference backend does not recycle line objects."""

    def evict(self, line_addr: int) -> Line:
        line = self._sets[line_addr & self.set_mask].pop(line_addr, None)
        if line is None:
            raise KeyError(f"line {line_addr:#x} not present")
        self._drop(line)
        return line

    def invalidate(self, line_addr: int) -> Optional[Line]:
        line = self._sets[line_addr & self.set_mask].pop(line_addr, None)
        if line is None:
            return None
        self._drop(line)
        return line

    def victim_candidate(self, set_idx: int, position: Optional[int] = None) -> Optional[Line]:
        lines = self._sets[set_idx]
        if len(lines) < self._ways:
            return None
        if position is None or position == len(lines) - 1:
            return lines[next(reversed(lines))]
        if not 0 <= position < len(lines):
            raise IndexError(f"victim position {position} out of range")
        return next(islice(lines.values(), position, None))

    def take_victim(self, set_idx: int, position: Optional[int] = None) -> Optional[Line]:
        """Detach a full set's victim; ``None`` while a way is free."""
        victim = self.victim_candidate(set_idx, position)
        if victim is not None:
            self.evict(victim.addr)
        return victim

    def install(
        self, addr: int, state: Mesi, spilled: bool, shared_region: bool, *, position: int
    ) -> Line:
        """Fill a free way of ``addr``'s set with a new line; return it."""
        if len(self._sets[addr & self.set_mask]) >= self._ways:
            raise ValueError(f"set of line {addr:#x} has no free way")
        line = Line(addr, state, spilled, shared_region)
        self.fill(line, position)
        return line

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def set_lines(self, set_idx: int) -> list[Line]:
        return list(self._sets[set_idx].values())

    def stack_view(self, set_idx: int):
        return self._sets[set_idx].values()

    def occupancy(self, set_idx: int) -> int:
        return len(self._sets[set_idx])

    def check_integrity(self, set_idx: int) -> None:
        """Raise ``AssertionError`` if the set's internal state is corrupt.

        Mirror of :meth:`SlotCacheArray.check_integrity` for the
        reference backend: key/line agreement, set membership, and
        occupancy within the associativity.
        """
        lines = self._sets[set_idx]
        if len(lines) > self._ways:
            raise AssertionError(
                f"set {set_idx}: {len(lines)} lines exceed {self._ways} ways"
            )
        for addr, line in lines.items():
            if line.addr != addr:
                raise AssertionError(
                    f"set {set_idx}: key {addr:#x} maps to line "
                    f"{line.addr:#x}"
                )
            if addr & self.set_mask != set_idx:
                raise AssertionError(
                    f"set {set_idx}: line {addr:#x} belongs to set "
                    f"{addr & self.set_mask}"
                )

    def iter_lines(self) -> Iterator[Line]:
        for lines in self._sets:
            yield from lines.values()

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _drop(self, line: Line) -> None:
        self._len -= 1
        if self.directory is not None:
            self.directory.remove(line.addr, self.cache_id)


#: The default backend: what plain ``CacheArray(...)`` constructs.
CacheArray = SlotCacheArray

#: Config-string -> backend class (``SystemConfig.cache_backend``).
CACHE_BACKENDS = {"slot": SlotCacheArray, "dict": DictCacheArray}


def default_backend() -> str:
    """The backend name used when config leaves the choice open.

    ``REPRO_CACHE_BACKEND`` overrides the built-in default, so CI can run
    the whole suite (golden digests included) against either backend
    without touching config call sites.
    """
    name = os.environ.get("REPRO_CACHE_BACKEND", "slot")
    if name not in CACHE_BACKENDS:
        raise ValueError(
            f"REPRO_CACHE_BACKEND={name!r} unknown; choose from {sorted(CACHE_BACKENDS)}"
        )
    return name


def resolve_backend(name: str):
    """Map a ``cache_backend`` config value to its array class."""
    try:
        return CACHE_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {name!r}; choose from {sorted(CACHE_BACKENDS)}"
        ) from None
