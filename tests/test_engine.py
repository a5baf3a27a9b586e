"""Engine semantics: quotas, warmup, interleaving, determinism."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cpu.timing import TimingModel
from repro.policies.private_lru import PrivateLRU
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.system import PrivateHierarchy


class ToyWorkload:
    """Deterministic strided walker."""

    def __init__(self, name="toy", stride=32, base=0, base_cpi=1.0):
        self.name = name
        self.stride = stride
        self.base = base
        self.timing = TimingModel(base_cpi, 1.0)

    def trace(self, rng):
        addr = self.base
        while True:
            yield 1, 0, addr, False
            addr += self.stride


def make_engine(workloads, quota=500, warmup=0, caches=None):
    caches = caches or len(workloads)
    cfg = SystemConfig(
        num_cores=caches,
        l2_geometry=CacheGeometry(16 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 32, 1, 32),
        quota=quota,
    )
    h = PrivateHierarchy(cfg, PrivateLRU())
    return Engine(h, workloads, quota, seed=3, warmup=warmup), h


def test_all_cores_reach_quota():
    engine, h = make_engine([ToyWorkload(base=0), ToyWorkload(base=1 << 20)])
    engine.run()
    for stats in h.stats:
        assert stats.instructions >= 500
        assert not stats.recording


def test_warmup_excluded_from_stats():
    w = [ToyWorkload()]
    engine, h = make_engine(w, quota=300, warmup=300)
    engine.run()
    # the stream misses constantly; stats only cover the recorded window
    total_accesses = h.stats[0].l2_accesses
    assert h.stats[0].instructions == pytest.approx(300, abs=4)
    assert 0 < total_accesses <= 200


def test_warmup_toggles_policy_flag():
    flags = []

    class Probe(PrivateLRU):
        def begin_warmup(self):
            super().begin_warmup()
            flags.append("begin")

        def end_warmup(self):
            super().end_warmup()
            flags.append("end")

    cfg = SystemConfig(
        num_cores=1,
        l2_geometry=CacheGeometry(16 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 32, 1, 32),
        quota=100,
    )
    h = PrivateHierarchy(cfg, Probe())
    Engine(h, [ToyWorkload()], quota=100, seed=0, warmup=50).run()
    assert flags == ["begin", "end"]


def test_slower_core_gets_more_wall_time():
    """Cores interleave by cycle count: a high-CPI core commits fewer
    instructions per unit of simulated time, but both finish their quota."""
    fast = ToyWorkload(name="fast", base=0, base_cpi=0.5)
    slow = ToyWorkload(name="slow", base=1 << 20, base_cpi=5.0)
    engine, h = make_engine([fast, slow], quota=400)
    engine.run()
    assert h.stats[0].cycles < h.stats[1].cycles * 1.05


def test_deterministic_across_runs():
    def run_once():
        engine, h = make_engine(
            [ToyWorkload(base=0), ToyWorkload(base=1 << 20)], quota=400
        )
        engine.run()
        return [(s.instructions, s.cycles, s.l2_accesses) for s in h.stats]

    assert run_once() == run_once()


def test_validation():
    with pytest.raises(ValueError):
        make_engine([], quota=10)
    with pytest.raises(ValueError):
        make_engine([ToyWorkload()], quota=0)


def test_hierarchy_line_size_must_match_the_workloads_lines():
    cfg = SystemConfig(
        num_cores=1,
        l2_geometry=CacheGeometry(16 * 2 * 64, 2, 64),
        l1_geometry=CacheGeometry(2 * 64, 1, 64),
        quota=10,
    )
    with pytest.raises(ValueError, match="line size 64"):
        Engine(PrivateHierarchy(cfg, PrivateLRU()), [ToyWorkload()], 10, seed=3)
