"""The SetStatsProbe policy of way-sweep (``l2_ways``) cells."""

from random import Random

from repro.execution.simulate import SetStatsProbe
from repro.cache.geometry import CacheGeometry


def test_probe_counts_accesses_and_misses():
    probe = SetStatsProbe()
    probe.attach(1, CacheGeometry(8 * 2 * 32, 2, 32), Random(0))
    probe.on_access(0, 3, "local")
    probe.on_access(0, 3, "miss")
    probe.on_access(0, 3, "remote")
    assert probe.set_accesses[3] == 3
    assert probe.set_misses[3] == 2
    assert probe.set_misses[2] == 0


def test_probe_never_spills():
    probe = SetStatsProbe()
    probe.attach(2, CacheGeometry(8 * 2 * 32, 2, 32), Random(0))
    assert not probe.should_spill(0, 0)
