"""Multi-core interleaved execution engine.

Cores advance independently through their traces; at each step the engine
executes the core with the smallest cycle count, so the L2 access streams
interleave in (simulated) time order and caches genuinely compete.

The scheduler picks that core without scanning: the waiting cores sit in a
binary heap keyed on ``(cycles, core_id)`` — the same total order (ties go
to the lowest core id) that a linear ``min`` over the core list produces —
and the running core keeps executing records while its key stays at or
below the heap root, so the heap is only touched when the lead actually
changes hands.  The interleaving is bit-identical to the ``min`` scan.

Following the paper's methodology, each core first warms the caches
(statistics off), then commits a fixed instruction quota with live
statistics, and then *keeps running* (its trace restarts if exhausted)
until the last core reaches its quota, "in order to keep competing for the
cache resources".

An optional :class:`~repro.obs.observer.Observer` taps the run without
touching the hot loop: its sampling deadline folds into the *existing*
per-record threshold compare (``threshold = min(state_threshold,
next_sample)``), so with no observer — ``next_sample`` stays infinite —
the per-record work is exactly what it was before instrumentation, and
the interleaving (hence every counter) is bit-identical.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from itertools import islice
from random import Random
from typing import Iterable, Optional, Protocol, Sequence, Tuple

from repro.coherence.protocol import Mesi
from repro.cpu.timing import TimingModel
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
        #: Loop counters (instructions, records, L1 misses, store hits
        #: retired in the loop) at the warm transition: the start of the
        #: recorded window.
        self.warm_counts = (0, 0, 0, 0)
        #: Records pulled from the core's sources so far.
        self.fetched = 0
        #: Next instruction count at which a state transition can happen:
        #: first the end of warmup, then the quota, then never again.
        self.state_threshold: float = warmup if warmup else quota
        #: Next observer sampling point; ``inf`` unless an observer with
        #: a sampling interval is attached (set by the engine).
        self.next_sample: float = float("inf")
        #: The per-record compare point: min(state_threshold, next_sample).
        self.threshold: float = self.state_threshold


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
        #: Per-core loop state lists while (and after) :meth:`run` executes.
        self._states: Optional[list[list]] = None
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
        states = self._states
        if states is None:
            return [core.cycles for core in self.cores]
        return [state[0] for state in states]

    def run(self) -> None:
        """Execute until every core has committed warmup + quota."""
        cores = self.cores
        hierarchy = self.hierarchy
        hierarchy_access = hierarchy.access
        write_through = hierarchy.write_through
        l1s = hierarchy.l1s
        remaining = len(cores)
        observer = self.observer
        sample_interval = self._sample_interval
        modified = Mesi.MODIFIED

        # Scheduler state: the heap holds one (cycles, core_id) entry per
        # core EXCEPT the one currently executing, and its root is cached
        # in two locals (refreshed after each heapreplace; ``inf`` for a
        # single core).  After each record the current core keeps running
        # while its (cycles, core_id) is still <= the root — the same
        # total order a ``min`` scan over all cores produces.  All cores
        # start at 0 cycles, so the tie goes to core 0.
        core_id = 0
        heap = [(c.cycles, c.core_id) for c in cores[1:]]
        heapify(heap)
        root_cycles, root_id = heap[0] if heap else (float("inf"), 0)
        # Every L1 shares one geometry, so the set mask is loop-invariant.
        l1_mask = l1s[0]._mask

        # Cores hand the lead back and forth every few records, so the
        # swap itself is hot.  Each core's loop state lives in one flat
        # list whose first five entries are the ones a record changes; a
        # switch is five item stores plus one unpack (a slice store costs
        # more than the five stores together).  Layout:
        #   [cycles, instructions, pos, misses, wt_hits,
        #    threshold, base_cpi, mlp, gaps, pcs, line_addrs, writes,
        #    core, l1_mru, l1_sets]
        # ``misses`` counts L1 misses and ``wt_hits`` store hits retired
        # here on a line already in M; records consumed are
        # ``core.fetched - len(gaps) + pos``.  L1 hits and the recorded
        # CoreStats counters are derived from these at the warm and done
        # transitions and at the end of the run, not bumped per record.
        states = self._states = []
        for c in cores:
            c_l1 = l1s[c.core_id]
            states.append(
                [
                    c.cycles,
                    c.instructions,
                    0,
                    0,
                    0,
                    c.threshold,
                    c.base_cpi,
                    c.mlp,
                    (),
                    (),
                    (),
                    (),
                    c,
                    c_l1._mru,
                    c_l1._sets,
                ]
            )

        state = states[core_id]
        (
            cycles,
            instructions,
            pos,
            misses,
            wt_hits,
            threshold,
            base_cpi,
            mlp,
            gaps,
            pcs,
            line_addrs,
            writes,
            core,
            l1_mru,
            l1_sets,
        ) = state

        while True:
            # Traces are consumed in per-core column blocks: each core's
            # record stream depends only on its own RNG and component
            # state, so pulling BLOCK records at a time yields the same
            # records while amortising the per-record production cost.
            # The block is walked with one cursor over its columns; the pc
            # is read only on an L1 miss.  Running off the end of a block
            # raises IndexError, which costs nothing until it happens
            # (once per block) and spares a bounds compare per record.
            try:
                committed = gaps[pos] + 1
            except IndexError:
                gaps, pcs, line_addrs, writes = block = core.source.fill(BLOCK)
                if gaps:
                    core.fetched += len(gaps)
                    state[8:12] = block
                else:  # trace exhausted: restart it, like the paper
                    core.source = open_source(core.workload, core.rng)
                pos = 0
                continue
            line_addr = line_addrs[pos]
            is_write = writes[pos]
            pos += 1
            instructions += committed
            cycles += committed * base_cpi
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
                    # included, and allocates into the L1 itself (a
                    # spilled line served remotely in place never enters
                    # this L1).
                    misses += 1
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

            if instructions >= threshold:
                if instructions >= core.state_threshold:
                    if not core.warmed:
                        core.warmed = True
                        core.cycle_offset = cycles
                        core.warm_counts = (
                            instructions,
                            core.fetched - len(gaps) + pos,
                            misses,
                            wt_hits,
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
                            core.fetched - len(gaps) + pos,
                            misses,
                            wt_hits,
                        )
                        core.state_threshold = float("inf")
                        core.next_sample = float("inf")
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
                # With no observer next_sample is inf, so this is the old
                # state threshold and the compare sequence is unchanged.
                state[5] = core.threshold = threshold = (
                    core.state_threshold
                    if core.state_threshold <= core.next_sample
                    else core.next_sample
                )
                if not remaining:
                    break

            # Same total order as ``(root < (cycles, core_id))`` (the
            # root's id never equals ``core_id``: the running core is not
            # in the heap), allocating the entry tuple only on a switch.
            if cycles >= root_cycles and (cycles > root_cycles or core_id > root_id):
                state[0] = cycles
                state[1] = instructions
                state[2] = pos
                state[3] = misses
                state[4] = wt_hits
                heapreplace(heap, (cycles, core_id))
                core_id = root_id
                state = states[core_id]
                (
                    cycles,
                    instructions,
                    pos,
                    misses,
                    wt_hits,
                    threshold,
                    base_cpi,
                    mlp,
                    gaps,
                    pcs,
                    line_addrs,
                    writes,
                    core,
                    l1_mru,
                    l1_sets,
                ) = state
                root_cycles, root_id = heap[0]

        state[0:5] = cycles, instructions, pos, misses, wt_hits
        for c, st in zip(cores, states):
            c.cycles = st[0]
            c.instructions = st[1]
            l1 = l1s[c.core_id]
            l1.misses += st[3]
            l1.hits += c.fetched - len(st[8]) + st[2] - st[3]
        if observer is not None:
            observer.finish()
        if self._sanitizer is not None:
            self._sanitizer.final_check()


def _record_window(
    core: _CoreRun,
    cycles: float,
    instructions: int,
    records: int,
    misses: int,
    wt_hits: int,
) -> None:
    """Freeze a core's recorded stats at its done transition.

    The recorded window runs from the record after the warm transition
    through the one that reached the quota; its counts are the
    differences between the loop counters now and the snapshot taken at
    the warm transition (all zero when there was no warmup).
    """
    warm_instructions, warm_records, warm_misses, warm_wt_hits = core.warm_counts
    stats = core.stats
    stats.cycles = cycles - core.cycle_offset
    stats.instructions = instructions - warm_instructions
    stats.l1_misses = misses - warm_misses
    stats.l1_hits = records - warm_records - stats.l1_misses
    # write_through bumps wt_writes itself while recording; add the
    # store hits the loop retired without calling it.
    stats.wt_writes += wt_hits - warm_wt_hits
    stats.recording = False
