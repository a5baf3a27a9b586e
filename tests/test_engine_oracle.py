"""Differential oracle: :class:`~repro.sim.engine.Engine` against a naive loop.

The engine schedules cores through a heap of plain floats, turns each
block's gaps into a step column, counts instructions per block and
reaches its warm, done and sample transitions by cutting that column at
the crossing record.  :func:`reference_run` does none of that: it picks
the next core with a linear ``min`` over ``(cycles, core_id)``, counts
instructions record by record, probes the L1 through ``L1Cache.access``,
sends every store hit through ``write_through`` and checks the
transitions after every record.  On small hand-built workloads both must
leave bit-identical results: per-core stats, bus traffic, L1 counters,
final cycle and instruction counts, and interval samples.

The strategies aim at the engine's edges: cores with equal ``base_cpi``
and integral latencies (exact cycle ties, from the all-zero start on),
gaps above 31 (past the packed trace format, so only generator-style
sources carry them), one record crossing both the warmup and the quota,
traces short enough to run out and restart, and an attached
:class:`~repro.obs.interval.IntervalRecorder`.
"""

from __future__ import annotations

from dataclasses import astuple
from random import Random
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cpu.timing import TimingModel
from repro.interconnect.bus import LatencyModel
from repro.obs.interval import IntervalRecorder
from repro.policies.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import BLOCK, Engine, open_source
from repro.sim.results import record_counts
from repro.sim.system import PrivateHierarchy

from tests.conftest import examples


def reference_run(hierarchy, workloads, quota, seed, warmup, observer=None):
    """The engine's semantics, one record and one plain ``min`` at a time."""
    policy, l1s, inf = hierarchy.policy, hierarchy.l1s, float("inf")
    interval = observer.interval if observer is not None else 0
    cores = []
    for i, w in enumerate(workloads):
        rng = Random((seed << 8) + i)
        cores.append(SimpleNamespace(
            id=i, w=w, rng=rng, src=open_source(w, rng), block=[], pos=0,
            cycles=0.0, instr=0, warmed=not warmup, done=False,
            start=(0, 0, 0, hierarchy.counts[i].copy()), offset=0.0,
            next_sample=interval if interval and not warmup else inf))
    if observer is not None:
        hierarchy.observer = policy.observer = observer
        observer.bind(hierarchy, workloads)
    if warmup:
        for stats in hierarchy.stats:
            stats.recording = False
        policy.begin_warmup()
    while not all(c.done for c in cores):
        c = min(cores, key=lambda c: (c.cycles, c.id))
        while c.pos == len(c.block):
            gaps, pcs, lines, writes = c.src.fill(BLOCK)
            if not gaps:  # exhausted: restart on the same rng
                c.src = open_source(c.w, c.rng)
            c.block, c.pos = list(zip(gaps, pcs, lines, writes)), 0
        gap, pc, line, is_write = c.block[c.pos]
        c.pos += 1
        c.instr += gap + 1
        c.cycles += (gap + 1) * c.w.timing.base_cpi
        if not l1s[c.id].access(line):
            c.cycles += hierarchy.access(c.id, line, is_write, pc) / c.w.timing.mlp
        elif is_write:
            hierarchy.write_through(c.id, line)
        stats, l1 = hierarchy.stats[c.id], l1s[c.id]
        if not c.warmed and c.instr >= warmup:
            c.warmed, c.offset, stats.recording = True, c.cycles, True
            c.start = (c.instr, l1.hits, l1.misses, hierarchy.counts[c.id].copy())
            if observer is not None:
                observer.on_phase(c.id, "measure", c.instr, c.cycles)
            c.next_sample = c.instr + interval if interval else inf
            if all(x.warmed for x in cores):
                policy.end_warmup()
        elif c.warmed and not c.done and c.instr >= warmup + quota:
            instr0, hits0, misses0, counts0 = c.start
            record_counts(stats, counts0, hierarchy.counts[c.id])
            stats.cycles, stats.instructions = c.cycles - c.offset, c.instr - instr0
            stats.l1_hits, stats.l1_misses = l1.hits - hits0, l1.misses - misses0
            c.done, stats.recording, c.next_sample = True, False, inf
            if observer is not None:
                observer.on_phase(c.id, "done", c.instr, c.cycles)
        elif c.instr >= c.next_sample:
            observer.on_sample(c.id, c.instr, c.cycles)
            while c.next_sample <= c.instr:
                c.next_sample += interval
    if observer is not None:
        observer.finish()
    return [(c.cycles, c.instr) for c in cores]


class TupleWorkload:
    """A finite hand-built trace of ``(gap, line, is_write)`` steps.

    Each pass jitters the line addresses with the engine's RNG, so a
    restart (which reuses that RNG) replays a different pass.
    """

    def __init__(self, name, steps, base_cpi, mlp, base):
        self.name = name
        self.steps = steps
        self.timing = TimingModel(base_cpi, mlp)
        self.base = base

    def trace(self, rng):
        jitter = rng.randrange(4)
        for i, (gap, line, is_write) in enumerate(self.steps):
            yield gap, 0x400 + i % 3, (self.base + line + jitter) * 32, is_write


def build(scheme, n):
    config = SystemConfig(
        num_cores=n,
        l2_geometry=CacheGeometry(8 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 32, 1, 32),
        latencies=LatencyModel(l2_local_hit=8, l2_remote_hit=24, memory=456),
        tick_interval=64,
        seed=3,
    )
    return PrivateHierarchy(config, make_policy(scheme))


def outcome(hierarchy, final, recorder):
    return (
        [astuple(s) for s in hierarchy.stats],
        astuple(hierarchy.traffic),
        [(l1.hits, l1.misses, l1.back_invalidations) for l1 in hierarchy.l1s],
        final,
        None if recorder is None else recorder.to_dict(),
    )


def run_both(scheme, traces, cpis, mlp, quota, warmup, interval):
    def workloads():
        return [
            TupleWorkload(f"t{i}", steps, cpis[i % len(cpis)], mlp, i << 12)
            for i, steps in enumerate(traces)
        ]

    results = []
    for runner in ("engine", "reference"):
        hierarchy = build(scheme, len(traces))
        recorder = IntervalRecorder(interval) if interval else None
        if runner == "engine":
            engine = Engine(hierarchy, workloads(), quota, 5, warmup, recorder)
            engine.run()
            final = [(c.cycles, c.instructions) for c in engine.cores]
        else:
            final = reference_run(hierarchy, workloads(), quota, 5, warmup, recorder)
        results.append(outcome(hierarchy, final, recorder))
    return results


steps = st.tuples(
    st.one_of(st.integers(0, 3), st.integers(0, 45)),  # gap, some above 31
    st.integers(0, 24),  # line, a few L1 sets' worth
    st.booleans(),  # store
)


@settings(max_examples=examples(60), deadline=None)
@given(
    scheme=st.sampled_from(["baseline", "ascc", "avgcc", "cc"]),
    traces=st.lists(st.lists(steps, min_size=1, max_size=40), min_size=1, max_size=4),
    cpis=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=4),
    mlp=st.sampled_from([1.0, 2.0]),
    quota=st.integers(1, 300),
    warmup=st.sampled_from([0, 3, 50, 200]),
    interval=st.sampled_from([0, 0, 7, 40]),
)
# One 40-instruction record crosses both the 3-instruction warmup and the
# 1-instruction quota; the done transition waits for the next record.
@example(scheme="ascc", traces=[[(39, 1, False), (0, 2, True)]] * 2, cpis=[1.0],
         mlp=1.0, quota=1, warmup=3, interval=7)
def test_engine_matches_reference_loop(
    scheme, traces, cpis, mlp, quota, warmup, interval
):
    engine, reference = run_both(scheme, traces, cpis, mlp, quota, warmup, interval)
    assert engine == reference


def test_tied_cores_alternate_by_id():
    """Four identical cores tie at every record: the lowest id runs first,
    and the engine and the reference agree on every counter."""
    trace = [(1, line, line % 3 == 0) for line in range(20)]
    engine, reference = run_both("ascc", [trace] * 4, [1.0], 1.0, 200, 50, 0)
    assert engine == reference
