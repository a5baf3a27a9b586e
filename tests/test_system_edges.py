"""Edge cases of the hierarchy not covered by the main system tests."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.coherence.protocol import Mesi
from repro.policies.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import PrivateHierarchy


def make_hierarchy(scheme="baseline", caches=2, sets=4, ways=2):
    cfg = SystemConfig(
        num_cores=caches,
        l2_geometry=CacheGeometry(sets * ways * 32, ways, 32),
        l1_geometry=CacheGeometry(2 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
    )
    return PrivateHierarchy(cfg, make_policy(scheme))


def test_write_through_requires_inclusion():
    h = make_hierarchy()
    with pytest.raises(AssertionError):
        h.write_through(0, 0xDEAD)


def test_write_to_spilled_remote_line_migrates_dirty():
    h = make_hierarchy("ascc", sets=4, ways=2)
    sets = 4
    for i in range(40):
        h.access(0, i * sets, False, 0)
    target = next(ln.addr for ln in h.l2s[1].iter_lines() if ln.spilled)
    h.access(0, target, True, 0)  # write: migrate home in M
    line = h.l2s[0].probe(target)
    assert line is not None and line.state is Mesi.MODIFIED
    assert not h.l2s[1].contains(target)
    h.check_invariants()


def test_write_miss_with_shared_copies_invalidates_all():
    h = make_hierarchy(caches=3)
    h.access(0, 9, False, 0)
    h.access(1, 9, False, 0)   # S in 0 and 1
    h.access(2, 9, True, 0)    # write by a third core
    assert h.l2s[2].probe(9).state is Mesi.MODIFIED
    assert h.l2s[0].probe(9) is None and h.l2s[1].probe(9) is None
    h.check_invariants()


def test_shared_line_eviction_is_silent():
    h = make_hierarchy(sets=1, ways=2)
    h.access(0, 0, False, 0)
    h.access(1, 0, False, 0)   # shared in both
    before = h.traffic.writebacks
    h.access(0, 1, False, 0)
    h.access(0, 2, False, 0)   # evicts shared line 0 (not last copy)
    assert h.traffic.writebacks == before
    assert h.l2s[1].contains(0)  # the peer still has it
    h.check_invariants()


def test_cc_spills_unconditionally():
    h = make_hierarchy("cc", sets=4, ways=2)
    for i in range(40):
        h.access(0, i * 4, False, 0)
    assert h.traffic.spills > 0
    # one-chance forwarding: spilled lines are not re-spilled
    spilled_once = [ln for ln in h.l2s[1].iter_lines() if ln.spilled]
    assert spilled_once
    h.check_invariants()


def test_snoop_counted_on_every_local_miss():
    h = make_hierarchy()
    h.access(0, 0, False, 0)
    h.access(0, 0, False, 0)  # hit: no snoop
    assert h.traffic.snoop_broadcasts == 1


def test_stats_not_recorded_when_frozen():
    # The hierarchy never writes CoreStats: it counts every access in
    # always-on counters, and the engine takes the recorded window.
    h = make_hierarchy()
    h.access(0, 0, False, 0)
    assert h.stats[0].l2_accesses == 0
    assert h.counts[0].l2_accesses == h.counts[0].l2_memory_fetches == 1
    assert h.traffic.memory_fetches == 1
