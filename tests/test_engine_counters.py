"""The engine's per-core counters at their edges.

The engine derives the L1 hit/miss totals and the recorded ``CoreStats``
instruction, L1 and write-through counts from snapshots taken at the
warm and done transitions instead of bumping them per record.  These
tests pin those values for the cells where a snapshot is easiest to get
wrong:

* a ``warmup=0`` cell (recording is live from the first record);
* a cell with an :class:`~repro.obs.interval.IntervalRecorder` sampling
  every 500 instructions (sampling thresholds interleave with the state
  transitions);
* a cell whose finite record source runs out and restarts mid-run.

The pinned tuples were recorded on the per-record-counter engine, so
they certify that deriving the counters changed nothing.  The raw
``L1Cache.hits``/``misses`` are not part of ``result_digest``; every
record the engine consumed is either an L1 hit or an L1 miss, which is
checked against the records a fresh replay of each core's stream needs
to reach its final instruction count.
"""

from __future__ import annotations

from dataclasses import astuple
from random import Random

import pytest

from repro.cpu.timing import TimingModel
from repro.obs.interval import IntervalRecorder
from repro.policies.registry import make_policy
from repro.sim.config import ScaleModel, default_config
from repro.sim.engine import BLOCK, Engine, open_source
from repro.sim.system import PrivateHierarchy
from repro.workloads.mixes import make_workloads

SEED = 7


class FiniteWorkload:
    """A 400-record stream that ends, so the engine restarts it."""

    def __init__(self, core: int) -> None:
        self.name = f"finite{core}"
        self.timing = TimingModel(0.9 + 0.2 * core, 1.5)
        self.base = (core + 1) << 30

    def trace(self, rng: Random):
        for i in range(400):
            line = (i * 7 + rng.randrange(3)) % 48
            yield i % 3, 0x400 + i % 5, self.base + line * 64, i % 5 == 0


def run_cell(workloads, scheme, quota, warmup, observer=None):
    config = default_config(num_cores=len(workloads), quota=quota, seed=SEED)
    hierarchy = PrivateHierarchy(config, make_policy(scheme))
    engine = Engine(hierarchy, workloads, quota, SEED, warmup, observer=observer)
    engine.run()
    return engine, hierarchy


def cell_warmup_zero():
    return run_cell(make_workloads((471, 444), ScaleModel()), "avgcc", 3_000, 0)


def cell_sampled():
    recorder = IntervalRecorder(interval=500)
    return run_cell(
        make_workloads((429, 401), ScaleModel()), "ascc", 3_000, 1_500, recorder
    )


def cell_finite_restart():
    return run_cell([FiniteWorkload(0), FiniteWorkload(1)], "ascc", 3_000, 1_000)


CELLS = {
    "warmup-zero": cell_warmup_zero,
    "sampled-500": cell_sampled,
    "finite-restart": cell_finite_restart,
}

#: ``astuple(CoreStats)`` per core, recorded on the per-record-counter
#: engine: (core_id, recording, instructions, cycles, l1_hits,
#: l1_misses, wt_writes, l2_accesses, l2_local_hits, l2_remote_hits,
#: l2_memory_fetches, spills_out, spills_in, swaps, hits_on_spilled,
#: writebacks, invalidations_sent, prefetches_issued, prefetches_useful).
PINNED = {
    "finite-restart": [
        (0, False, 3001, 6582.900000000733, 855, 647, 156, 647, 647, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, False, 3001, 7315.099999999267, 833, 669, 166, 669, 669, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
    "sampled-500": [
        (0, False, 2998, 32234.11428571383, 857, 139, 267, 139, 10, 0, 129, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, False, 3000, 35007.69230769281, 803, 188, 218, 188, 20, 0, 168, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
    "warmup-zero": [
        (0, False, 3000, 6979.6296296296805, 940, 56, 292, 56, 0, 0, 56, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, False, 3002, 42414.233333333446, 868, 127, 254, 127, 0, 0, 127, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
}


def records_consumed(workload, core_id: int, instructions: int) -> int:
    """Records a fresh replay of the core's stream needs to commit
    exactly ``instructions`` instructions (restarting it when it ends,
    as the engine does)."""
    rng = Random((SEED << 8) + core_id)
    source = open_source(workload, rng)
    records = committed = 0
    while committed < instructions:
        gaps = source.fill(BLOCK)[0]
        if not gaps:
            source = open_source(workload, rng)
            continue
        for gap in gaps:
            committed += gap + 1
            records += 1
            if committed >= instructions:
                break
    assert committed == instructions, "replay overshot the engine's count"
    return records


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_recorded_core_stats_match_pinned_values(cell):
    _, hierarchy = CELLS[cell]()
    assert [astuple(s) for s in hierarchy.stats] == PINNED[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_l1_hits_plus_misses_equal_records_consumed(cell):
    engine, hierarchy = CELLS[cell]()
    for core, l1 in zip(engine.cores, hierarchy.l1s):
        consumed = records_consumed(core.workload, core.core_id, core.instructions)
        assert l1.hits + l1.misses == consumed
        assert l1.misses >= hierarchy.stats[core.core_id].l2_accesses


def test_finite_cell_restarts_mid_run():
    engine, _ = cell_finite_restart()
    for core in engine.cores:
        assert core.instructions > 2 * sum(
            gap + 1 for gap, *_ in core.workload.trace(Random(0))
        )
