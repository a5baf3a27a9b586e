"""Seeded property tests: counter conservation across the whole stack.

Three layers of invariants, each at the level where it actually holds:

* **Per-core L2 conservation** — every access a core makes is resolved
  exactly one way, so ``l2_local_hits + l2_remote_hits +
  l2_memory_fetches == l2_accesses`` for every core of every engine run.
  This holds regardless of recording windows because all four are
  differences over the same core's window.
* **Global spill conservation** — each spill increments the source's
  ``spills_out`` and the destination's ``spills_in``, which are equal in
  aggregate *only* over one window for all cores.  Engine runs close
  cores' windows at different times (peers still spill at a finished
  core), so the exact invariant is checked on the always-on per-core
  counters of a :class:`~repro.sim.system.PrivateHierarchy` driven
  directly, like the system fuzzer.
* **Recording freeze** — statistics stop at the quota (within one trace
  record) even though cores keep running to compete for cache space.

Interval telemetry rides the same counters, so its deltas must be
non-negative and sum exactly to the end-of-run totals.

All hypothesis tests are derandomized: the same examples run everywhere,
so a failure reproduces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.api import RunSpec
from repro.execution.simulate import simulate_spec
from repro.obs import IntervalRecorder
from repro.policies.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import PrivateHierarchy

MIX = (471, 444)

#: A record commits ``gap + 1`` instructions, so the freeze can overshoot
#: the quota by at most one record's gap (single digits in practice).
OVERSHOOT_SLACK = 64

access_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # core
        st.integers(min_value=0, max_value=63),  # line address
        st.booleans(),  # write?
    ),
    max_size=250,
)


# --------------------------------------------------------------------- #
# Engine-level: per-core conservation and the recording freeze
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", ["baseline", "dsr", "ascc", "avgcc", "qos-avgcc"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=999),
    warmup=st.sampled_from([0, 1_000, 2_500]),
)
def test_per_core_l2_conservation(scheme, seed, warmup):
    quota = 4_000
    result = simulate_spec(
        RunSpec(mix=MIX, scheme=scheme, quota=quota, warmup=warmup, seed=seed)
    )
    for stats in result.cores:
        assert (
            stats.l2_local_hits + stats.l2_remote_hits + stats.l2_memory_fetches
            == stats.l2_accesses
        ), f"core {stats.core_id} leaks L2 accesses under {scheme}"
        assert stats.l1_hits + stats.l1_misses <= stats.instructions
        # Recording froze at the quota, within one trace record each way
        # (the measure window is ``warmup + quota`` minus wherever the
        # warmup crossing actually landed, so both ends can slip a gap).
        assert not stats.recording
        assert quota - OVERSHOOT_SLACK <= stats.instructions <= quota + OVERSHOOT_SLACK


# --------------------------------------------------------------------- #
# Hierarchy-level: global spill/swap conservation on the always-on counters
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", ["ascc", "ascc-2s", "avgcc", "cc"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(accesses=access_lists)
def test_global_spill_conservation(scheme, accesses):
    cfg = SystemConfig(
        num_cores=3,
        l2_geometry=CacheGeometry(4 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 32, 1, 32),
        quota=100,
        tick_interval=64,
    )
    h = PrivateHierarchy(cfg, make_policy(scheme))
    for core, line, is_write in accesses:
        h.access(core, line, is_write, pc=0)
    spills_out = sum(c.spills_out for c in h.counts)
    spills_in = sum(c.spills_in for c in h.counts)
    assert spills_out == spills_in == h.traffic.spills
    assert sum(c.swaps for c in h.counts) == h.traffic.swaps
    h.check_invariants()


# --------------------------------------------------------------------- #
# Interval telemetry: deltas are non-negative and total exactly
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", ["ascc", "avgcc"])
@pytest.mark.parametrize("warmup", [0, 2_000])
def test_interval_deltas_conserve_totals(scheme, warmup):
    recorder = IntervalRecorder(interval=1_000, snapshot_sets=False)
    result = simulate_spec(
        RunSpec(mix=MIX, scheme=scheme, quota=6_000, warmup=warmup, seed=11),
        observer=recorder,
    )
    by_core = recorder.by_core()
    for stats in result.cores:
        series = by_core[stats.core_id]
        assert series, f"no samples for core {stats.core_id}"
        for sample in series:
            assert sample.d_instructions > 0
            assert sample.d_cycles > 0
            assert all(delta >= 0 for delta in sample.deltas.values()), (
                f"negative interval delta: {sample.deltas}"
            )
        # Consecutive samples chain: deltas measure exactly the gap.
        for prev, cur in zip(series, series[1:]):
            assert cur.index == prev.index + 1
            assert cur.instructions - prev.instructions == cur.d_instructions
        # Summed deltas reproduce the recorded totals bit-for-bit.
        for name in series[0].deltas:
            total = sum(sample.deltas[name] for sample in series)
            assert total == getattr(stats, name), (
                f"interval deltas of {name} sum to {total}, "
                f"stats hold {getattr(stats, name)}"
            )
        assert sum(s.d_instructions for s in series) == stats.instructions
        assert sum(s.d_cycles for s in series) == pytest.approx(stats.cycles)
