"""Primitive synthetic access-pattern components.

Benchmark models (:mod:`repro.workloads.spec2006`) are mixtures of these
components.  Each component produces an infinite stream of ``(pc, byte
address)`` pairs from its own region of the address space; the mixture adds
instruction gaps and load/store flags.  Four properties drive everything the
paper's policies react to, and each primitive supplies one of them:

* :class:`SequentialLoop` — cyclic reuse over a working set.  LRU-friendly
  when the working set fits; an LRU *thrash* pattern when it slightly
  exceeds capacity (the case BIP/SABIP protect against).
* :class:`PointerChase` — the same cyclic reuse in a pseudo-random order
  (a full-period LCG permutation), defeating stride prefetchers.
* :class:`Stream` — no reuse at all: high MPKI that no amount of cache
  capacity reduces (milc/libquantum/lbm behaviour in Figure 1).
* :class:`RandomRegion` — uniform random lines over a region much larger
  than the cache (mcf-like).

``stride_lines`` on the loop concentrates pressure on a subset of sets,
producing the non-uniform per-set demand (Figure 2) that distinguishes
set-granular schemes from global ones.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from random import Random

LINE = 32  # byte granularity of the modelled machines


class AddressComponent(abc.ABC):
    """An infinite generator of (pc, byte address) pairs."""

    __slots__ = ()

    @abc.abstractmethod
    def next_access(self) -> tuple[int, int]:
        """Produce the next access of this component."""


class SequentialLoop(AddressComponent):
    """Repeatedly walk a working set of ``ws_bytes`` with a fixed stride.

    ``stride_lines > 1`` walks every ``stride_lines``-th line, touching only
    a subset of cache sets while keeping the same footprint per touched set.
    """

    __slots__ = ("base", "lines", "stride", "pc", "_pos")

    def __init__(
        self, base: int, ws_bytes: int, pc: int, stride_lines: int = 1
    ) -> None:
        if ws_bytes < LINE:
            raise ValueError("working set smaller than one line")
        if stride_lines < 1:
            raise ValueError("stride must be at least one line")
        self.base = base
        self.lines = max(1, ws_bytes // (LINE * stride_lines))
        self.stride = stride_lines * LINE
        self.pc = pc
        self._pos = 0

    def next_access(self) -> tuple[int, int]:
        addr = self.base + self._pos * self.stride
        self._pos += 1
        if self._pos >= self.lines:
            self._pos = 0
        return self.pc, addr


class PointerChase(AddressComponent):
    """Cyclic walk of a working set in pseudo-random (LCG) order.

    Uses a full-period LCG over the working set's lines, so every line is
    touched exactly once per cycle — the reuse profile of a loop with the
    spatial predictability removed.
    """

    __slots__ = ("lines", "base", "pc", "_a", "_c", "_x")

    def __init__(self, base: int, ws_bytes: int, pc: int) -> None:
        lines = max(4, ws_bytes // LINE)
        # Round up to a power of two so (a*x + c) mod lines has full period
        # with a % 4 == 1 and odd c (Hull-Dobell conditions).
        self.lines = 1 << (lines - 1).bit_length()
        self.base = base
        self.pc = pc
        self._a = 5
        self._c = 12345 | 1
        self._x = 1

    def next_access(self) -> tuple[int, int]:
        self._x = (self._a * self._x + self._c) & (self.lines - 1)
        return self.pc, self.base + self._x * LINE


class Stream(AddressComponent):
    """Monotone streaming: every line is touched once and never again.

    Wraps at ``region_bytes`` (default 256 MB per component) only to keep
    the address space bounded; the wrap period is far beyond any reuse
    horizon the simulated caches can exploit.
    """

    __slots__ = ("base", "pc", "lines", "_pos")

    def __init__(self, base: int, pc: int, region_bytes: int = 256 << 20) -> None:
        self.base = base
        self.pc = pc
        self.lines = region_bytes // LINE
        self._pos = 0

    def next_access(self) -> tuple[int, int]:
        addr = self.base + self._pos * LINE
        self._pos += 1
        if self._pos >= self.lines:
            self._pos = 0
        return self.pc, addr


class RandomRegion(AddressComponent):
    """Uniform random line accesses over a fixed region."""

    __slots__ = ("base", "lines", "pc", "rng", "_getrandbits", "_bits")

    def __init__(self, base: int, region_bytes: int, pc: int, rng: Random) -> None:
        if region_bytes < LINE:
            raise ValueError("region smaller than one line")
        self.base = base
        self.lines = region_bytes // LINE
        self.pc = pc
        self.rng = rng
        # Inlined ``randrange(lines)``: the same getrandbits rejection loop
        # CPython's Random._randbelow runs, minus the wrapper overhead.  The
        # draw sequence is bit-identical, which golden results rely on.
        self._getrandbits = rng.getrandbits
        self._bits = self.lines.bit_length()

    def next_access(self) -> tuple[int, int]:
        lines = self.lines
        r = self._getrandbits(self._bits)
        while r >= lines:
            r = self._getrandbits(self._bits)
        return self.pc, self.base + r * LINE


class ThrashColumn(AddressComponent):
    """A working set with exact per-set depth over a chosen set range.

    Real working sets stress cache sets unevenly; this primitive makes that
    controllable: it covers ``covered_sets`` consecutive set indices
    (starting at ``set_offset``) of a cache with ``sets_total`` sets, and
    holds exactly ``depth`` lines in each covered set, visited cyclically —
    row by row, with the set order scrambled inside each row so spatial
    prefetchers see no stride.

    Per covered set the reference stream is a pure LRU recency cycle of
    ``depth`` lines: *every* access misses when ``depth`` exceeds the ways
    available to that set, and *every* access hits once enough ways (own,
    spill-donated, or BIP-protected) are available.  That is precisely the
    behaviour ASCC's SSL counters classify, so benchmark models state their
    capacity appetite in (depth, coverage) terms and inherit the paper's
    set-level dynamics.

    The component is defined against the *baseline* set count, so on a
    larger simulated cache the same addresses spread over more sets and the
    per-set depth shrinks proportionally — a fixed-size working set, as in
    reality.
    """

    __slots__ = (
        "base", "sets_total", "covered_sets", "set_offset", "depth", "pc",
        "_i", "_row", "_mask",
    )

    _SCRAMBLE = 0x9E3779B1  # odd => bijective multiply mod a power of two

    def __init__(
        self,
        base: int,
        sets_total: int,
        covered_sets: int,
        set_offset: int,
        depth: int,
        pc: int,
    ) -> None:
        if sets_total <= 0 or sets_total & (sets_total - 1):
            raise ValueError("sets_total must be a positive power of two")
        if covered_sets <= 0 or covered_sets & (covered_sets - 1):
            raise ValueError("covered_sets must be a positive power of two")
        if covered_sets + set_offset > sets_total:
            raise ValueError("covered range exceeds the set space")
        if depth < 1:
            raise ValueError("depth must be at least one line")
        if base % (sets_total * LINE):
            raise ValueError("base must be aligned to the set span")
        self.base = base
        self.sets_total = sets_total
        self.covered_sets = covered_sets
        self.set_offset = set_offset
        self.depth = depth
        self.pc = pc
        self._i = 0
        self._row = 0
        self._mask = covered_sets - 1

    def next_access(self) -> tuple[int, int]:
        scrambled = (self._i * self._SCRAMBLE) & self._mask
        line = self._row * self.sets_total + self.set_offset + scrambled
        self._i += 1
        if self._i >= self.covered_sets:
            self._i = 0
            self._row += 1
            if self._row >= self.depth:
                self._row = 0
        return self.pc, self.base + line * LINE

    @property
    def ws_bytes(self) -> int:
        """Total footprint of the column."""
        return self.covered_sets * self.depth * LINE


class Dwell(AddressComponent):
    """Repeat each underlying access ``count`` times (spatial locality).

    Real programs touch a cache line several times (word-granular walks)
    before moving on; ``Dwell`` models that, which is what gives the L1 its
    filtering power: with ``count = 8`` only one in eight accesses proceeds
    past a warm L1.
    """

    __slots__ = ("inner", "count", "_inner_next", "_remaining", "_current")

    def __init__(self, inner: AddressComponent, count: int) -> None:
        if count < 1:
            raise ValueError("dwell count must be at least 1")
        self.inner = inner
        self.count = count
        self._inner_next = inner.next_access
        self._remaining = 0
        self._current: tuple[int, int] = (0, 0)

    def next_access(self) -> tuple[int, int]:
        remaining = self._remaining
        if remaining == 0:
            self._current = self._inner_next()
            remaining = self.count
        self._remaining = remaining - 1
        return self._current


class MixtureTrace:
    """Weighted mixture of components with gaps and store flags.

    Produces engine trace records ``(gap, pc, byte_addr, is_write)``.  The
    gap (non-memory instructions before the access) is uniform over
    ``[gap_min, gap_max]``; stores occur with ``write_fraction``
    probability.  :meth:`fill` hands out the stream as column blocks (what
    the engine and the trace cache consume); iterating yields the same
    stream as tuples.
    """

    def __init__(
        self,
        components: list[tuple[float, AddressComponent]],
        rng: Random,
        gap_min: int,
        gap_max: int,
        write_fraction: float,
    ) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(w for w, _ in components)
        if total <= 0:
            raise ValueError("component weights must be positive")
        self._cum: list[float] = []
        self._parts: list[AddressComponent] = []
        acc = 0.0
        for weight, comp in components:
            acc += weight / total
            self._cum.append(acc)
            self._parts.append(comp)
        self._cum[-1] = 1.0
        self.rng = rng
        self.gap_min = gap_min
        self.gap_max = gap_max
        self.write_fraction = write_fraction
        # :class:`Dwell` wrappers are unrolled into per-part repeat state
        # (seeded from the wrapper, carried across fill() calls here):
        # repeating the previous access is the dominant record, and this
        # turns it from a method call into a couple of list indexings.
        # Components are built fresh for every ``trace()`` call, so the
        # wrapper object never needs the state written back.
        parts = self._parts
        self._next = [
            p._inner_next if type(p) is Dwell else p.next_access for p in parts
        ]
        self._counts = [p.count if type(p) is Dwell else 0 for p in parts]
        self._remaining = [p._remaining if type(p) is Dwell else 0 for p in parts]
        self._current = [p._current if type(p) is Dwell else (0, 0) for p in parts]

    def fill(self, n: int) -> tuple[list, list, list, list]:
        """The next ``n`` records as four columns ``(gaps, pcs, addrs, writes)``.

        The stream is infinite, so every column has exactly ``n`` entries;
        consecutive calls continue it exactly where the last one stopped.
        """
        # Hot loop: every simulated memory access of every core flows
        # through here.  Bound methods are hoisted, the component draw uses
        # C bisect over the cumulative weights, and the gap draw inlines
        # ``randrange(gap_span + 1)`` as the getrandbits rejection loop that
        # Random._randbelow runs — all three produce streams bit-identical
        # to the straightforward formulation.  The columns are preallocated
        # and written by index, which is cheaper per record than append.
        gaps = [0] * n
        pcs = [0] * n
        addrs = [0] * n
        writes = [False] * n
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        parts_next = self._next
        counts = self._counts
        remaining = self._remaining
        current = self._current
        gap_min, gap_span = self.gap_min, self.gap_max - self.gap_min
        span = gap_span + 1
        span_bits = span.bit_length()
        wfrac = self.write_fraction
        if len(parts_next) == 1:
            # Single-component models skip the weight draw entirely, so
            # the dwell repeat state can live in plain locals — no list
            # indexing per record.  The rng call sequence (gap, write
            # flag) is exactly that of the general loop below.
            part_next = parts_next[0]
            count = counts[0]
            rem = remaining[0]
            cur = current[0]
            for k in range(n):
                if count:
                    if rem == 0:
                        cur = part_next()
                        rem = count
                    rem -= 1
                    pc, addr = cur
                else:
                    pc, addr = part_next()
                if gap_span:
                    r = getrandbits(span_bits)
                    while r >= span:
                        r = getrandbits(span_bits)
                    gaps[k] = gap_min + r
                else:
                    gaps[k] = gap_min
                pcs[k] = pc
                addrs[k] = addr
                writes[k] = random() < wfrac
            remaining[0] = rem
            current[0] = cur
            return gaps, pcs, addrs, writes
        cum = self._cum
        for k in range(n):
            i = bisect_left(cum, random())
            count = counts[i]
            if count:
                rem = remaining[i]
                if rem == 0:
                    current[i] = parts_next[i]()
                    rem = count
                remaining[i] = rem - 1
                pc, addr = current[i]
            else:
                pc, addr = parts_next[i]()
            if gap_span:
                r = getrandbits(span_bits)
                while r >= span:
                    r = getrandbits(span_bits)
                gaps[k] = gap_min + r
            else:
                gaps[k] = gap_min
            pcs[k] = pc
            addrs[k] = addr
            writes[k] = random() < wfrac
        return gaps, pcs, addrs, writes

    def __iter__(self):
        while True:
            yield from zip(*self.fill(1024))
