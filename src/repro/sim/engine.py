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
from typing import Iterable, Iterator, Protocol, Sequence, Tuple

from repro.cpu.timing import TimingModel
from repro.sim.system import MemoryHierarchy

#: One trace record: (non-memory instruction gap, pc, byte address, is_write).
TraceRecord = Tuple[int, int, int, bool]

#: A run of consecutive records as four equal-length columns
#: ``(gaps, pcs, addrs, writes)``.
Block = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: Records the engine pulls from a core's source per refill.
BLOCK = 1024


class BlockSource(Protocol):
    """A record stream handed out in column blocks."""

    def fill(self, n: int) -> Block:
        """The next ``n`` records; fewer (down to none) only at the end."""
        ...


class Workload(Protocol):
    """What the engine needs from a per-core workload.

    A workload may also offer ``source(rng) -> BlockSource`` producing the
    same stream as ``trace(rng)`` in column blocks; the engine prefers it
    (see :func:`open_source`).
    """

    name: str
    timing: TimingModel

    def trace(self, rng: Random) -> Iterator[TraceRecord]:
        """A fresh (practically infinite) access trace."""
        ...


class RecordSource:
    """A tuple-record iterator served as column blocks."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self._records = iter(records)

    def fill(self, n: int) -> Block:
        chunk = list(islice(self._records, n))
        return (
            [r[0] for r in chunk],
            [r[1] for r in chunk],
            [r[2] for r in chunk],
            [r[3] for r in chunk],
        )


def open_source(workload: Workload, rng: Random) -> BlockSource:
    """A fresh block source for ``workload``'s trace under ``rng``."""
    source = getattr(workload, "source", None)
    if source is not None:
        return source(rng)
    return RecordSource(workload.trace(rng))


class _CoreRun:
    """Execution state of one core.

    ``base_cpi``/``mlp`` mirror ``workload.timing`` and ``stats``/
    ``l1_access`` mirror the hierarchy's per-core objects, hoisted here once
    so the per-record loop does no attribute chasing.
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
        "l1",
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
        self.hierarchy = hierarchy
        self.cores = [
            _CoreRun(i, w, quota, warmup, Random((seed << 8) + i))
            for i, w in enumerate(workloads)
        ]
        for core in self.cores:
            core.stats = hierarchy.stats[core.core_id]  # type: ignore[attr-defined]
            core.l1 = hierarchy.l1s[core.core_id]
        self._offset_bits = hierarchy.l1s[0].geometry.offset_bits
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

    def run(self) -> None:
        """Execute until every core has committed warmup + quota."""
        cores = self.cores
        hierarchy = self.hierarchy
        hierarchy_access = hierarchy.access
        write_through = hierarchy.write_through
        offset_bits = self._offset_bits
        l1s = hierarchy.l1s
        remaining = len(cores)
        observer = self.observer
        sample_interval = self._sample_interval

        # Scheduler state: the heap holds one (cycles, core_id) entry per
        # core EXCEPT the one currently executing.  After each record the
        # current core keeps running while its (cycles, core_id) is still
        # <= the heap root — the same total order a ``min`` scan over all
        # cores produces — and the heap is only touched on a switch.  The
        # hot per-core state (cycles, instruction count, bound methods)
        # lives in locals for the duration of a run and is written back
        # when the core is swapped out.
        core = cores[0]  # all cores start at 0 cycles; the tie goes to id 0
        heap = [(c.cycles, c.core_id) for c in cores[1:]]
        heapify(heap)
        multi = len(cores) > 1
        # Every L1 shares one geometry, so the set mask is loop-invariant.
        l1_mask = l1s[0]._mask

        # Cores hand the lead back and forth every few records, so the
        # swap itself is hot.  Each core's loop state lives in one flat
        # list; a switch is then three list stores plus a single
        # 15-element unpack instead of a dozen attribute accesses.
        # Layout: [cycles, instructions, threshold, base_cpi, mlp,
        #          gaps, pcs, addrs, writes, pos, block_len, l1, l1_mru,
        #          l1_sets, core_stats].
        states = []
        for c in cores:
            c_l1 = l1s[c.core_id]
            states.append(
                [
                    c.cycles,
                    c.instructions,
                    c.threshold,
                    c.base_cpi,
                    c.mlp,
                    (),
                    (),
                    (),
                    (),
                    0,
                    0,
                    c_l1,
                    c_l1._mru,
                    c_l1._sets,
                    c.stats,
                ]
            )

        core_id = core.core_id
        state = states[core_id]
        (
            cycles,
            instructions,
            threshold,
            base_cpi,
            mlp,
            gaps,
            pcs,
            addrs,
            writes,
            pos,
            block_len,
            l1,
            l1_mru,
            l1_sets,
            core_stats,
        ) = state
        recording = core_stats.recording

        while remaining:
            # Traces are consumed in per-core column blocks: each core's
            # record stream depends only on its own RNG and component
            # state, so pulling BLOCK records at a time yields the same
            # records while amortising the per-record production cost.
            # The block is walked with one cursor over its columns; the pc
            # is read only on an L1 miss.
            if pos == block_len:
                block = core.source.fill(BLOCK)
                block_len = len(block[0])
                if not block_len:  # trace exhausted: restart it, like the paper
                    core.source = open_source(core.workload, core.rng)
                    pos = 0
                    continue
                gaps, pcs, addrs, writes = block
                state[5:11] = gaps, pcs, addrs, writes, 0, block_len
                pos = 0
            gap = gaps[pos]
            addr = addrs[pos]
            is_write = writes[pos]
            pos += 1
            committed = gap + 1
            instructions += committed
            cycles += committed * base_cpi

            if recording:
                core_stats.instructions += committed

            line_addr = addr >> offset_bits
            set_idx = line_addr & l1_mask
            # Fully inlined L1 probe.  Most records re-touch the line the
            # set served last (dwell) — one list index and one compare;
            # the rest do the membership test and promotion here, saving
            # a method call per record.
            if l1_mru[set_idx] == line_addr:
                l1.hits += 1
                hit = True
            else:
                lines = l1_sets[set_idx]
                if line_addr in lines:
                    lines.move_to_end(line_addr, False)
                    l1_mru[set_idx] = line_addr
                    l1.hits += 1
                    hit = True
                else:
                    l1.misses += 1
                    hit = False
            if hit:
                if is_write:
                    write_through(core_id, line_addr)
                if recording:
                    core_stats.l1_hits += 1
            else:
                if recording:
                    core_stats.l1_misses += 1
                # The hierarchy allocates into the L1 itself (a spilled
                # line served remotely in place never enters this L1).
                latency = hierarchy_access(
                    core_id, line_addr, is_write, pcs[pos - 1]
                )
                cycles += latency / mlp

            if instructions >= threshold:
                if instructions >= core.state_threshold:
                    if not core.warmed:
                        core.warmed = True
                        core.cycle_offset = cycles
                        core_stats.recording = recording = True
                        core.state_threshold = core.warmup + core.quota
                        if observer is not None:
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
                        core_stats.cycles = cycles - core.cycle_offset
                        core_stats.recording = recording = False
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
                state[2] = core.threshold = threshold = (
                    core.state_threshold
                    if core.state_threshold <= core.next_sample
                    else core.next_sample
                )

            if multi:
                # Same total order as ``(root < (cycles, core_id))`` but
                # without allocating the entry tuple unless the lead
                # actually changes hands (the root's id never equals
                # ``core_id`` — the running core is not in the heap).
                root = heap[0]
                root_cycles = root[0]
                if root_cycles < cycles or (
                    root_cycles == cycles and root[1] < core_id
                ):
                    state[0] = core.cycles = cycles
                    state[1] = core.instructions = instructions
                    state[9] = pos
                    heapreplace(heap, (cycles, core_id))
                    core_id = root[1]
                    core = cores[core_id]
                    state = states[core_id]
                    (
                        cycles,
                        instructions,
                        threshold,
                        base_cpi,
                        mlp,
                        gaps,
                        pcs,
                        addrs,
                        writes,
                        pos,
                        block_len,
                        l1,
                        l1_mru,
                        l1_sets,
                        core_stats,
                    ) = state
                    recording = core_stats.recording

        core.cycles = cycles
        core.instructions = instructions
        if observer is not None:
            observer.finish()
        if self._sanitizer is not None:
            self._sanitizer.final_check()
