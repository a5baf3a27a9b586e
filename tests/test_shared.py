"""Banked shared LLC model."""

from repro.cache.geometry import CacheGeometry
from repro.sim.config import SystemConfig
from repro.sim.system import SharedHierarchy


def make_shared(caches=2, sets=4, ways=2):
    cfg = SystemConfig(
        num_cores=caches,
        l2_geometry=CacheGeometry(sets * ways * 32, ways, 32),
        l1_geometry=CacheGeometry(32, 1, 32),
        quota=100,
    )
    return SharedHierarchy(cfg)


def test_aggregate_capacity():
    h = make_shared(caches=4)
    assert h.llc.geometry.size_bytes == 4 * 4 * 2 * 32


def test_average_bank_latency_grows_with_cores():
    two = make_shared(caches=2)
    four = make_shared(caches=4)
    assert four._latency > two._latency


def test_hit_and_miss_latencies():
    h = make_shared()
    miss = h.access(0, 0, False, 0)
    hit = h.access(1, 0, False, 0)  # any core hits the shared cache
    assert miss == h._latency + h.config.latencies.memory
    assert hit == h._latency
    assert h.counts[1].l2_local_hits == 1


def test_writeback_on_dirty_eviction():
    h = make_shared(caches=1, sets=1, ways=2)
    h.access(0, 0, True, 0)
    h.access(0, 1, False, 0)
    h.access(0, 2, False, 0)
    assert h.traffic.writebacks == 1


def test_write_through_dirties():
    h = make_shared()
    h.access(0, 3, False, 0)
    h.write_through(0, 3)
    from repro.coherence.protocol import Mesi

    assert h.llc.probe(3).state is Mesi.MODIFIED
