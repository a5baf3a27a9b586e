"""PrivateHierarchy access paths: coherence, spills, swaps, inclusion."""

from repro.cache.cache import Line
from repro.cache.geometry import CacheGeometry
from repro.coherence.protocol import Mesi
from repro.policies.private_lru import PrivateLRU
from repro.policies.registry import make_policy
from repro.sim.config import PrefetchConfig, SystemConfig
from repro.sim.system import PrivateHierarchy


def make_hierarchy(scheme="baseline", caches=2, sets=4, ways=2, prefetch=None):
    cfg = SystemConfig(
        num_cores=caches,
        l2_geometry=CacheGeometry(sets * ways * 32, ways, 32),
        l1_geometry=CacheGeometry(2 * 1 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
        prefetch=prefetch,
    )
    return PrivateHierarchy(cfg, make_policy(scheme))


def test_memory_fetch_then_local_hit():
    h = make_hierarchy()
    lat1 = h.access(0, 0x100, False, 0)
    assert lat1 == h.config.latencies.l2_remote_hit + h.config.latencies.memory
    lat2 = h.access(0, 0x100, False, 0)
    assert lat2 == h.config.latencies.l2_local_hit
    assert h.counts[0].l2_memory_fetches == 1
    assert h.counts[0].l2_local_hits == 1


def test_l1_allocated_on_local_paths():
    h = make_hierarchy()
    h.access(0, 0x100, False, 0)
    assert h.l1s[0].contains(0x100)


def test_write_allocates_modified():
    h = make_hierarchy()
    h.access(0, 7, True, 0)
    assert h.l2s[0].probe(7).state is Mesi.MODIFIED


def test_eviction_writes_back_dirty():
    h = make_hierarchy(sets=1, ways=2)
    h.access(0, 0, True, 0)
    h.access(0, 1, False, 0)
    h.access(0, 2, False, 0)  # evicts line 0 (dirty)
    assert h.traffic.writebacks == 1


def test_back_invalidation_preserves_inclusion():
    h = make_hierarchy(sets=1, ways=2)
    h.access(0, 0, False, 0)
    h.access(0, 1, False, 0)
    h.access(0, 2, False, 0)
    assert not h.l1s[0].contains(0)
    h.check_invariants()


def test_genuine_shared_read_downgrades_to_s():
    h = make_hierarchy()
    h.access(0, 5, False, 0)
    h.access(1, 5, False, 0)  # remote hit on a non-spilled line
    assert h.l2s[0].probe(5).state is Mesi.SHARED
    assert h.l2s[1].probe(5).state is Mesi.SHARED
    assert h.counts[1].l2_remote_hits == 1
    h.check_invariants()


def test_write_invalidates_remote_copies():
    h = make_hierarchy()
    h.access(0, 5, False, 0)
    h.access(1, 5, False, 0)
    h.access(0, 5, True, 0)  # write hit locally; invalidate peer
    assert h.l2s[0].probe(5).state is Mesi.MODIFIED
    assert h.l2s[1].probe(5) is None
    h.check_invariants()


def test_write_through_upgrades():
    h = make_hierarchy()
    h.access(0, 5, False, 0)
    assert h.l1s[0].contains(5)
    h.write_through(0, 5)
    assert h.l2s[0].probe(5).state is Mesi.MODIFIED
    assert h.counts[0].wt_writes == 1


def test_modified_remote_read_writes_back():
    h = make_hierarchy()
    h.access(0, 5, True, 0)   # M in cache 0
    h.access(1, 5, False, 0)  # remote read -> downgrade + writeback
    assert h.l2s[0].probe(5).state is Mesi.SHARED
    assert h.traffic.writebacks == 1


def _saturate_and_spill(h, spiller=0, receiver=1, set_idx=0):
    """Drive cache `spiller` set 0 into the spiller state with a stream."""
    sets = h.config.l2_geometry.sets
    for i in range(40):
        h.access(spiller, i * sets + set_idx, False, 0)


def test_ascc_spills_to_receiver():
    h = make_hierarchy("ascc", sets=4, ways=2)
    _saturate_and_spill(h)
    assert h.traffic.spills > 0
    spilled = [ln for ln in h.l2s[1].iter_lines() if ln.spilled]
    assert spilled
    h.check_invariants()


def test_spilled_line_swaps_home_on_reuse():
    h = make_hierarchy("ascc", sets=4, ways=2)
    _saturate_and_spill(h)
    target = next(ln.addr for ln in h.l2s[1].iter_lines() if ln.spilled)
    lat = h.access(0, target, False, 0)
    assert lat == h.config.latencies.l2_remote_hit
    # migrated home...
    assert h.l2s[0].contains(target)
    # ... and the displaced local victim swapped into the freed slot.
    assert h.traffic.swaps >= 1
    assert h.counts[0].hits_on_spilled == 1
    h.check_invariants()


def test_dsr_serves_spilled_in_place():
    h = make_hierarchy("dsr", sets=64, ways=2)
    # Make cache 0 a spiller and cache 1 a receiver via PSEL.
    h.policy.psel[0] = 63
    h.policy.psel[1] = 0
    follower = 2 * h.config.num_cores  # not an SDM residue
    sets = h.config.l2_geometry.sets
    for i in range(40):
        h.access(0, i * sets + follower, False, 0)
    assert h.traffic.spills > 0
    target = next(
        (ln.addr for ln in h.l2s[1].iter_lines() if ln.spilled), None
    )
    assert target is not None
    before = h.l2s[1].recency_position(target)
    lat = h.access(0, target, False, 0)
    assert lat == h.config.latencies.l2_remote_hit
    assert not h.l2s[0].contains(target)          # stayed remote
    assert h.l2s[1].recency_position(target) == 0  # promoted
    h.check_invariants()


def test_spilled_victim_preference_protects_own_lines():
    h = make_hierarchy("ascc", sets=4, ways=2)
    # Receiver set 1 in cache 1: one own line + one spilled line.
    h.l2s[1].fill(Line(1, Mesi.EXCLUSIVE), 0)
    h.directory.add(1, 1)
    h.l2s[1].fill(Line(5, Mesi.EXCLUSIVE, spilled=True, shared_region=True), 0)
    h.directory.add(5, 1)
    # Saturate cache 0's set 1 and spill into cache 1.
    sets = 4
    for i in range(40):
        h.access(0, i * sets + 1, False, 0)
    assert h.l2s[1].contains(1)       # own line survived
    assert not h.l2s[1].contains(5)   # old spilled line recycled
    h.check_invariants()


def test_prefetcher_fills_near_lru():
    h = make_hierarchy(prefetch=PrefetchConfig(confidence_threshold=1), sets=64, ways=2)
    sets = 64
    for i in range(6):
        h.access(0, i, False, pc=77)  # stride-1 misses train the table
    assert h.traffic.prefetch_fills > 0
    assert h.counts[0].prefetches_issued > 0


def test_tick_fires_policy():
    fired = []

    class Probe(PrivateLRU):
        def tick(self):
            fired.append(1)

    cfg = SystemConfig(
        num_cores=1,
        l2_geometry=CacheGeometry(4 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(32, 1, 32),
        quota=100,
        tick_interval=5,
    )
    h = PrivateHierarchy(cfg, Probe())
    for i in range(12):
        h.access(0, i, False, 0)
    assert len(fired) == 2
