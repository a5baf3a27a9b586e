"""Multi-core interleaved execution engine.

Cores advance independently through their traces; at each step the engine
executes the core with the smallest cycle count, so the L2 access streams
interleave in (simulated) time order and caches genuinely compete.  Ties
go to the lowest core id: the order of a linear ``min`` over
``(cycles, core_id)``.

Following the paper's methodology, each core first warms the caches
(statistics off), then commits a fixed instruction quota with live
statistics, and then *keeps running* (its trace restarts if exhausted)
until the last core reaches its quota, "in order to keep competing for the
cache resources".

The loop does as little as it can per record (DESIGN.md §12):

* **Scheduler.**  The waiting cores' cycle counts sit in a heap of plain
  floats, and the running core keeps executing records while its count
  stays below the root, so the heap is only touched when the lead
  changes hands.  ``cycles_of`` holds each core's count as of its last
  switch, so the owner of a popped root is ``cycles_of.index(root)``,
  the lowest core id with that count: the tie rule.  Before a switch the
  owner is looked up only when the counts tie exactly.
* **Per-block accounting.**  A refill maps the block's gaps through a
  per-core table ``cost[g] = (g + 1) * base_cpi`` into a step column
  (the very floats a per-record multiply gives) and adds the block's
  instructions at once.  L1 misses are read off the hierarchy's outcome
  counters, so a record bumps no counter unless it is a store hit on a
  line already in M.
* **Transitions.**  The record that reaches a core's next threshold (end
  of warmup, quota, or an observer's sampling point) is found once per
  block, by bisecting the block's instruction prefix sums, and the step
  column is cut just before it.  Reading past the cut runs that record
  from the whole column and drops the scheduler root below every count,
  so the switch check right after the record takes the transition first:
  a core's window closes on the record that reaches its quota, before any
  other core runs, and ``policy.end_warmup()`` and the loop's exit keep
  their place.

An optional :class:`~repro.obs.observer.Observer` taps the run without
touching the hot loop: its sampling deadline is one more threshold, so
with no observer (``next_sample`` stays infinite) the loop does exactly
the same work, and the interleaving (hence every counter) is
bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heapreplace
from itertools import accumulate, islice
from random import Random
from typing import Iterable, Optional, Protocol, Sequence, Tuple

from repro.coherence.protocol import Mesi
from repro.cpu.timing import TimingModel
from repro.sim.results import CoreCounts, record_counts
from repro.sim.system import MemoryHierarchy
from repro.workloads.generators import LINE

#: One tuple-trace record: (non-memory instruction gap, pc, byte address,
#: is_write).  Only hand-written tuple traces use it; :class:`RecordSource`
#: turns them into line-address blocks.
TraceRecord = Tuple[int, int, int, bool]

#: A run of consecutive records as four equal-length columns
#: ``(gaps, pcs, lines, writes)``; ``lines`` are line addresses (byte
#: address // :data:`~repro.workloads.generators.LINE`), the unit every
#: cache indexes by.
Block = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: Byte-to-line shift for tuple traces.
_LINE_BITS = LINE.bit_length() - 1

#: Records the engine pulls from a core's source per refill.
BLOCK = 1024

#: Instructions a record commits: its gap plus the memory op itself.
_COMMITTED = (1).__add__


class BlockSource(Protocol):
    """A record stream handed out in column blocks."""

    def fill(self, n: int) -> Block:
        """The next ``n`` records; fewer (down to none) only at the end."""
        ...


class Workload(Protocol):
    """What the engine needs from a per-core workload.

    Besides ``name`` and ``timing``, a workload offers its stream one of
    two ways (see :func:`open_source`): ``source(rng) -> BlockSource`` of
    line addresses (the generator models and trace-cache replays), or
    ``trace(rng)``, an iterator of byte-address :data:`TraceRecord` tuples
    (hand-written traces), which :class:`RecordSource` adapts.
    """

    name: str
    timing: TimingModel


class RecordSource:
    """A byte-address tuple-record iterator served as line-address blocks.

    The byte-to-line shift happens here, once per block, so the engine
    loop only ever sees line addresses.
    """

    __slots__ = ("_records",)

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self._records = iter(records)

    def fill(self, n: int) -> Block:
        chunk = list(islice(self._records, n))
        return (
            [r[0] for r in chunk],
            [r[1] for r in chunk],
            [r[2] >> _LINE_BITS for r in chunk],
            [r[3] for r in chunk],
        )


def open_source(workload: Workload, rng: Random) -> BlockSource:
    """A fresh line-address block source for ``workload`` under ``rng``."""
    source = getattr(workload, "source", None)
    if source is not None:
        return source(rng)
    return RecordSource(workload.trace(rng))


class _CoreRun:
    """Execution state of one core.

    ``base_cpi``/``mlp`` mirror ``workload.timing`` and ``stats`` is the
    hierarchy's per-core :class:`~repro.sim.results.CoreStats`.  While
    :meth:`Engine.run` executes, ``cycles``/``instructions`` are written
    only before observer calls and at the end of the run; use
    :meth:`Engine.live_cycles` for a mid-run reading.

    The current block lives here too: its gap column, its step column
    (cycles per record before the memory access) and the instructions
    committed before and through it.  The loop itself reads a step
    column cut before the next threshold crossing (:meth:`cut`).
    """

    __slots__ = (
        "core_id",
        "workload",
        "source",
        "rng",
        "cycles",
        "cycle_offset",
        "instructions",
        "warmup",
        "quota",
        "warmed",
        "done",
        "base_cpi",
        "mlp",
        "stats",
        "warm_counts",
        "fetched",
        "threshold",
        "state_threshold",
        "next_sample",
        "cost",
        "gaps",
        "column",
        "prefix",
        "block_start",
        "block_end",
    )

    def __init__(
        self, core_id: int, workload: Workload, quota: int, warmup: int, rng: Random
    ) -> None:
        self.core_id = core_id
        self.workload = workload
        self.rng = rng
        self.source = open_source(workload, rng)
        self.cycles = 0.0
        self.cycle_offset = 0.0
        self.instructions = 0
        self.warmup = warmup
        self.quota = quota
        self.warmed = warmup == 0
        self.done = False
        self.base_cpi = workload.timing.base_cpi
        self.mlp = workload.timing.mlp
        #: Instructions, records, loop-retired store hits and hierarchy
        #: counters at the warm transition: the start of the recorded
        #: window.
        self.warm_counts = (0, 0, 0, CoreCounts())
        #: Records pulled from the core's sources so far.
        self.fetched = 0
        #: Next instruction count at which a state transition can happen:
        #: first the end of warmup, then the quota, then never again.
        self.state_threshold: float = warmup if warmup else quota
        #: Next observer sampling point; ``inf`` unless an observer with
        #: a sampling interval is attached (set by the engine).
        self.next_sample: float = float("inf")
        #: The next crossing point: min(state_threshold, next_sample).
        self.threshold: float = self.state_threshold
        #: ``cost[g] = (g + 1) * base_cpi``, the cycles of a record with
        #: gap ``g``: the very float a per-record multiply gives.  Grows
        #: when a block holds a longer gap.
        self.cost = [(g + 1) * self.base_cpi for g in range(32)]
        self.gaps: Sequence[int] = ()
        self.column: list = []
        #: Committed-instruction prefix sums of the block, built only when
        #: a crossing or a reading needs them.
        self.prefix: Optional[list] = None
        #: Instructions committed before and through the current block.
        self.block_start = 0
        self.block_end = 0

    def refill(self) -> tuple:
        """Pull the next block; return ``(steps, pcs, lines, writes)``.

        An empty block means the trace is exhausted: the source restarts,
        like the paper, and the next read refills again.
        """
        gaps, pcs, line_addrs, writes = self.source.fill(BLOCK)
        if not gaps:
            self.source = open_source(self.workload, self.rng)
        self.fetched += len(gaps)
        cost = self.cost
        try:
            column = list(map(cost.__getitem__, gaps))
        except IndexError:  # a gap past the table (generator models)
            base_cpi = self.base_cpi
            cost.extend(
                (g + 1) * base_cpi for g in range(len(cost), max(gaps) + 1)
            )
            column = list(map(cost.__getitem__, gaps))
        self.gaps = gaps
        self.column = column
        self.prefix = None
        self.block_start = self.block_end
        self.block_end += sum(gaps) + len(gaps)
        return self.cut(0), pcs, line_addrs, writes

    def cut(self, pos: int) -> list:
        """The step column, cut before the first record at or after
        ``pos`` whose count reaches ``threshold`` (whole when none does).
        """
        threshold = self.threshold
        if self.block_end < threshold:
            return self.column
        cross = bisect_left(self._prefix(), threshold - self.block_start, pos)
        return self.column[:cross]

    def instructions_at(self, pos: int) -> int:
        """Instructions committed through the block's first ``pos`` records."""
        if not pos:
            return self.block_start
        return self.block_start + self._prefix()[pos - 1]

    def _prefix(self) -> list:
        prefix = self.prefix
        if prefix is None:
            prefix = self.prefix = list(accumulate(map(_COMMITTED, self.gaps)))
        return prefix


class Engine:
    """Runs a set of workloads over a memory hierarchy."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        workloads: list[Workload],
        quota: int,
        seed: int,
        warmup: int = 0,
        observer=None,
    ) -> None:
        if not workloads:
            raise ValueError("need at least one workload")
        if quota <= 0 or warmup < 0:
            raise ValueError("quota must be positive and warmup non-negative")
        line_bytes = hierarchy.l1s[0].geometry.line_bytes
        if line_bytes != LINE:
            # Block sources hand out line addresses of LINE-byte lines.
            raise ValueError(
                f"hierarchy line size {line_bytes} B differs from the "
                f"workloads' {LINE} B lines"
            )
        self.hierarchy = hierarchy
        self.cores = [
            _CoreRun(i, w, quota, warmup, Random((seed << 8) + i))
            for i, w in enumerate(workloads)
        ]
        for core in self.cores:
            core.stats = hierarchy.stats[core.core_id]  # type: ignore[attr-defined]
        #: Each core's cycle count as of its last switch, while (and
        #: after) :meth:`run` executes.
        self._cycles_of: Optional[list[float]] = None
        self._warming = warmup > 0
        self.observer = observer
        self._sample_interval = 0
        if observer is not None:
            # Wire the observer into every layer that emits: the
            # hierarchy (spill/swap events), the policy (mode flips,
            # re-grains, throttles) and the engine itself (samples).
            hierarchy.observer = observer
            policy = getattr(hierarchy, "policy", None)
            if policy is not None:
                policy.observer = observer
            observer.bind(hierarchy, workloads)
            self._sample_interval = int(getattr(observer, "interval", 0) or 0)
            if self._sample_interval > 0:
                for core in self.cores:
                    if core.warmed:  # no warmup: sampling starts at once
                        core.next_sample = self._sample_interval
                        core.threshold = min(
                            core.state_threshold, core.next_sample
                        )
        # The runtime sanitizer (repro.verify) hangs off the hierarchy;
        # the engine only needs to know it for cycle context and the
        # end-of-run sweep — nothing in the hot loop touches it.
        self._sanitizer = getattr(hierarchy, "sanitizer", None)
        if self._sanitizer is not None:
            self._sanitizer.bind_engine(self)
        if warmup:
            for stats in hierarchy.stats:  # type: ignore[attr-defined]
                stats.recording = False
            policy = getattr(hierarchy, "policy", None)
            if policy is not None:
                policy.begin_warmup()

    def live_cycles(self) -> list[float]:
        """Each core's cycle count, readable while :meth:`run` executes.

        Mid-run a core's entry is its count when it last handed the lead
        to another core (the running core's own count lives in a local),
        so the values lag by at most one scheduling quantum.
        """
        cycles_of = self._cycles_of
        if cycles_of is None:
            return [core.cycles for core in self.cores]
        return list(cycles_of)

    def run(self) -> None:
        """Execute until every core has committed warmup + quota."""
        cores = self.cores
        hierarchy = self.hierarchy
        hierarchy_access = hierarchy.access
        write_through = hierarchy.write_through
        l1s = hierarchy.l1s
        counts = hierarchy.counts
        remaining = len(cores)
        observer = self.observer
        sample_interval = self._sample_interval
        modified = Mesi.MODIFIED
        inf = float("inf")
        # Every L1 miss is one L2 access, so the L1 misses of this run are
        # the growth of each core's outcome counters.
        first_accesses = [c.l2_accesses for c in counts]

        # Scheduler state: ``cycles_of`` holds every core's count as of
        # its last switch, and the heap the counts of every core EXCEPT
        # the one executing, as plain floats.  The root lives in a local
        # (``inf`` for a single core).  After each record the current
        # core keeps running while its count is below the root, or equal
        # to it with the lower core id: the order a ``min`` over
        # ``(cycles, core_id)`` gives.  ``cycles_of.index(root)`` is the
        # lowest core id holding the root's count (the running core's
        # stale entry can only match when the running core is itself the
        # lowest, which again means "keep running").  All cores start at
        # 0 cycles, so the tie goes to core 0.
        cycles_of = self._cycles_of = [c.cycles for c in cores]
        heap = cycles_of[1:]
        heapify(heap)
        root = heap[0] if heap else inf
        core_id = 0
        # Every L1 shares one geometry, so the set mask is loop-invariant.
        l1_mask = l1s[0]._mask

        # Cores hand the lead back and forth every few records, so the
        # swap itself is hot.  Each core's loop state lives in one flat
        # list whose first two entries are the ones a record changes; a
        # switch is two item stores, one ``cycles_of`` store and one
        # unpack.  Layout:
        #   [pos, wt_hits, steps, pcs, line_addrs, writes, mlp, l1_mru,
        #    l1_sets]
        # ``steps`` is the block's step column cut before the next
        # threshold crossing (see ``_CoreRun.cut``); ``wt_hits`` counts
        # store hits retired here on a line already in M.  Records
        # consumed are ``core.fetched - len(core.gaps) + pos`` and
        # instructions ``core.instructions_at(pos)``; both are computed
        # only at transitions and at the end of the run, the only places
        # besides a refill that need the ``_CoreRun``.
        states = []
        for c in cores:
            c_l1 = l1s[c.core_id]
            states.append([0, 0, [], (), (), (), c.mlp, c_l1._mru, c_l1._sets])
        state = states[core_id]
        cycles = cycles_of[core_id]
        (
            pos,
            wt_hits,
            steps,
            pcs,
            line_addrs,
            writes,
            mlp,
            l1_mru,
            l1_sets,
        ) = state

        while True:
            # Traces are consumed in per-core column blocks: each core's
            # record stream depends only on its own RNG and component
            # state, so pulling BLOCK records at a time yields the same
            # records while amortising the per-record production cost.
            # Reading past the step column raises IndexError, which costs
            # nothing until it happens and spares a compare per record.
            # It happens at the block's end, or at the record that reaches
            # the core's threshold, where the column was cut.
            try:
                cycles += steps[pos]
            except IndexError:
                core = cores[core_id]
                if pos < len(core.column):
                    # The crossing record: run it from the whole column,
                    # and set the root below every count so the switch
                    # check right after it takes the transition first.
                    cycles += core.column[pos]
                    root = -1.0
                else:
                    steps, pcs, line_addrs, writes = state[2:6] = core.refill()
                    pos = 0
                    continue
            line_addr = line_addrs[pos]
            is_write = writes[pos]
            pos += 1
            set_idx = line_addr & l1_mask
            # Fully inlined L1 probe (last key = MRU).  Most records
            # re-touch the line the set served last (dwell) — one list
            # index and one compare; the rest do the membership test and
            # promotion here, saving a method call per record.
            if l1_mru[set_idx] != line_addr:
                lines = l1_sets[set_idx]
                if line_addr in lines:
                    lines.move_to_end(line_addr)
                    l1_mru[set_idx] = line_addr
                else:
                    # L1 miss: the hierarchy resolves the access, store
                    # included, counts it, and allocates into the L1
                    # itself (a spilled line served remotely in place
                    # never enters this L1).
                    cycles += (
                        hierarchy_access(core_id, line_addr, is_write, pcs[pos - 1])
                        / mlp
                    )
                    is_write = False
            if is_write:
                # Store hit.  The L1 entry holds the inclusive L2's line;
                # one already in M only counts the write-through.  The
                # address check catches a slot recycled for another line
                # (inclusion back-invalidates the L1 first, so it never
                # should be); anything else takes the full path.
                line = l1_sets[set_idx][line_addr]
                if line.state is modified and line.addr == line_addr:
                    wt_hits += 1
                else:
                    write_through(core_id, line_addr)

            if cycles >= root:
                if root < 0.0:
                    # A transition is due at this record.
                    core = cores[core_id]
                    instructions = core.instructions_at(pos)
                    if instructions >= core.state_threshold:
                        records = core.fetched - len(core.gaps) + pos
                        if not core.warmed:
                            core.warmed = True
                            core.cycle_offset = cycles
                            core.warm_counts = (
                                instructions,
                                records,
                                wt_hits,
                                counts[core_id].copy(),
                            )
                            core.stats.recording = True
                            core.state_threshold = core.warmup + core.quota
                            if observer is not None:
                                core.cycles = cycles
                                core.instructions = instructions
                                observer.on_phase(
                                    core_id, "measure", instructions, cycles
                                )
                                if sample_interval:
                                    core.next_sample = (
                                        instructions + sample_interval
                                    )
                            if self._warming and all(c.warmed for c in cores):
                                self._warming = False
                                policy = getattr(hierarchy, "policy", None)
                                if policy is not None:
                                    policy.end_warmup()
                        elif not core.done:
                            core.done = True
                            _record_window(
                                core,
                                cycles,
                                instructions,
                                records,
                                wt_hits,
                                counts[core_id],
                            )
                            core.state_threshold = inf
                            core.next_sample = inf
                            remaining -= 1
                            if observer is not None:
                                core.cycles = cycles
                                core.instructions = instructions
                                observer.on_phase(
                                    core_id, "done", instructions, cycles
                                )
                    elif instructions >= core.next_sample:
                        core.cycles = cycles
                        core.instructions = instructions
                        observer.on_sample(core_id, instructions, cycles)
                        next_sample = core.next_sample + sample_interval
                        while next_sample <= instructions:  # a gap spanned >1
                            next_sample += sample_interval
                        core.next_sample = next_sample
                    core.threshold = (
                        core.state_threshold
                        if core.state_threshold <= core.next_sample
                        else core.next_sample
                    )
                    steps = state[2] = core.cut(pos)
                    root = heap[0] if heap else inf
                    if not remaining:
                        break
                if cycles > root or (
                    cycles == root and core_id > cycles_of.index(root)
                ):
                    cycles_of[core_id] = cycles
                    state[0] = pos
                    state[1] = wt_hits
                    cycles = heapreplace(heap, cycles)
                    core_id = cycles_of.index(cycles)
                    state = states[core_id]
                    (
                        pos,
                        wt_hits,
                        steps,
                        pcs,
                        line_addrs,
                        writes,
                        mlp,
                        l1_mru,
                        l1_sets,
                    ) = state
                    root = heap[0]

        cycles_of[core_id] = cycles
        state[0] = pos
        for c, st, first in zip(cores, states, first_accesses):
            c.cycles = cycles_of[c.core_id]
            c.instructions = c.instructions_at(st[0])
            misses = counts[c.core_id].l2_accesses - first
            l1 = l1s[c.core_id]
            l1.misses += misses
            l1.hits += c.fetched - len(c.gaps) + st[0] - misses
        if observer is not None:
            observer.finish()
        if self._sanitizer is not None:
            self._sanitizer.final_check()


def _record_window(
    core: _CoreRun,
    cycles: float,
    instructions: int,
    records: int,
    wt_hits: int,
    counts: CoreCounts,
) -> None:
    """Freeze a core's recorded stats at its done transition.

    The recorded window runs from the record after the warm transition
    through the one that reached the quota; its counts are the
    differences between the loop's and the hierarchy's counters now and
    the snapshot taken at the warm transition (all zero when there was
    no warmup).
    """
    warm_instructions, warm_records, warm_wt_hits, warm_counts = core.warm_counts
    stats = core.stats
    stats.cycles = cycles - core.cycle_offset
    stats.instructions = instructions - warm_instructions
    record_counts(stats, warm_counts, counts)
    # Every L1 miss is one L2 access.
    stats.l1_misses = stats.l2_accesses
    stats.l1_hits = records - warm_records - stats.l1_misses
    # write_through counts the stores it sees; add the store hits the
    # loop retired without calling it.
    stats.wt_writes += wt_hits - warm_wt_hits
    stats.recording = False
