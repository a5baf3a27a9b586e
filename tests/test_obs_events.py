"""Event tracing: the ring buffer, filters, and every emission site."""

import io
import json
from dataclasses import replace
from random import Random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.ascc import ASCC
from repro.core.avgcc import AVGCC
from repro.core.qos import QoSAVGCC
from repro.api import RunSpec
from repro.execution.simulate import simulate_spec
from repro.obs import EventTracer
from repro.obs.events import KNOWN_KINDS
from repro.policies.registry import make_policy
from repro.sim.config import ScaleModel, default_config
from repro.sim.engine import Engine
from repro.sim.system import PrivateHierarchy
from repro.workloads.mixes import make_workloads

MIX = (471, 444)


# --------------------------------------------------------------------- #
# Ring-buffer mechanics
# --------------------------------------------------------------------- #


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventTracer(capacity=0)


def test_ring_keeps_newest_and_counts_drops():
    tracer = EventTracer(capacity=4)
    for i in range(10):
        tracer.emit("spill", n=i)
    assert len(tracer) == 4
    assert tracer.emitted == tracer.recorded == 10
    assert tracer.dropped == 6
    assert [e.data["n"] for e in tracer] == [6, 7, 8, 9]
    assert [e.seq for e in tracer] == [7, 8, 9, 10]


def test_kind_filter_still_advances_seq():
    tracer = EventTracer(kinds=("swap",))
    tracer.emit("spill", n=0)
    tracer.emit("swap", n=1)
    tracer.emit("spill", n=2)
    tracer.emit("swap", n=3)
    assert tracer.emitted == 4 and tracer.recorded == 2
    # seq gaps reveal the filtered-out events.
    assert [e.seq for e in tracer] == [2, 4]
    assert tracer.counts() == {"swap": 2}


def test_jsonl_export_parses_line_per_event():
    tracer = EventTracer()
    tracer.emit("spill", src=0, dst=1, set=3, addr=42)
    tracer.emit("regrain", cache=1, old_d=8, new_d=7, counters=2)
    stream = io.StringIO()
    tracer.write_jsonl(stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first == {"seq": 1, "kind": "spill", "src": 0, "dst": 1, "set": 3, "addr": 42}
    assert second["kind"] == "regrain" and second["new_d"] == 7


# --------------------------------------------------------------------- #
# Emission sites, driven end-to-end
# --------------------------------------------------------------------- #


def test_spill_and_swap_events_match_traffic():
    tracer = EventTracer()
    result = simulate_spec(
        RunSpec(mix=MIX, scheme="ascc", quota=5_000, warmup=2_000, seed=7), observer=tracer
    )
    counts = tracer.counts()
    # Emission is unconditional (not gated on recording), like traffic.
    assert counts.get("spill", 0) == result.traffic.spills
    assert counts.get("swap", 0) == result.traffic.swaps
    assert result.traffic.spills > 0
    for event in tracer:
        if event.kind in ("spill", "swap"):
            assert event.data["src"] != event.data["dst"]
            assert 0 <= event.data["set"] < 256


def test_regrain_events_both_directions():
    tracer = EventTracer(kinds=("regrain",))
    policy = AVGCC()
    policy.attach(1, CacheGeometry(16 * 8 * 32, 8, 32), Random(3))
    policy.observer = tracer
    bank = policy.banks[0]
    start_d = bank.granularity_log2
    policy.tick()  # the single counter sits at K-1 < K: duplicate
    assert bank.granularity_log2 == start_d - 1
    for set_idx in (0, 8):  # push both counters to the same value >= K
        for _ in range(3):
            policy.on_access(0, set_idx, "miss")
    policy.tick()  # similar neighbour pair: halve back
    assert bank.granularity_log2 == start_d
    events = list(tracer)
    assert [e.data["old_d"] for e in events] == [start_d, start_d - 1]
    assert [e.data["new_d"] for e in events] == [start_d - 1, start_d]
    assert all(e.data["cache"] == 0 for e in events)
    assert events[0].data["counters"] == 2 and events[1].data["counters"] == 1


def test_regrain_events_fire_in_a_real_run():
    # The default tick interval (6250 L2 accesses at 1/16 scale) never
    # fires inside a short test run, so shrink it: AVGCC must announce
    # its initial refinement through the engine-attached observer.
    tracer = EventTracer(kinds=("regrain",))
    scale = ScaleModel()
    config = replace(
        default_config(num_cores=2, scale=scale, quota=5_000, seed=7),
        tick_interval=64,
    )
    hierarchy = PrivateHierarchy(config, make_policy("avgcc"))
    engine = Engine(
        hierarchy, make_workloads(MIX, scale), 5_000, 7, 2_000, observer=tracer
    )
    engine.run()
    assert tracer.recorded > 0
    for event in tracer:
        assert abs(event.data["new_d"] - event.data["old_d"]) == 1
        assert event.data["counters"] >= 1


def test_receive_flip_events_on_capacity_entry_and_exit():
    tracer = EventTracer()
    policy = ASCC()
    policy.attach(1, CacheGeometry(16 * 8 * 32, 8, 32), Random(3))
    policy.observer = tracer
    bank = policy.banks[0]
    for _ in range(3 * bank.ways):  # saturate set 0's SSL
        policy.on_access(0, 0, "miss")
    # A single cache has no peer receiver: capacity mode must engage.
    assert policy.select_receiver(0, 0) is None
    assert bank.in_capacity_mode(0)
    # Re-entry while already in capacity mode must not re-announce.
    policy.select_receiver(0, 0)
    for _ in range(4 * bank.ways):  # hits melt the SSL below K
        policy.on_access(0, 0, "local")
    assert policy.insertion_position(0, 0) == 0  # MRU again
    assert not bank.in_capacity_mode(0)
    flips = [e for e in tracer if e.kind == "receive_flip"]
    assert [f.data["mode"] for f in flips] == ["capacity", "mru"]
    assert all(f.data["cache"] == 0 and f.data["set"] == 0 for f in flips)


def test_qos_throttle_event_reports_ratio_change():
    tracer = EventTracer()
    policy = QoSAVGCC()
    policy.attach(2, CacheGeometry(16 * 8 * 32, 8, 32), Random(3))
    policy.observer = tracer
    # Eight misses walk the SSL from 0 to K; each is checked against the
    # *pre-update* value (< K), so none is sampled — the baseline
    # estimate MBC stays 0 while real misses accrue: the harshest
    # possible throttle once the now-saturated counter is sampled at
    # tick time.
    bank = policy.banks[0]
    for _ in range(bank.ways):
        policy.on_access(0, 0, "miss")
    assert bank.value(0) == bank.ways  # sampled from now on
    policy.tick()
    throttles = [e for e in tracer if e.kind == "qos_throttle"]
    assert len(throttles) == 1
    event = throttles[0]
    assert event.data["cache"] == 0
    assert event.data["previous"] == 1.0
    assert event.data["ratio"] == 0.0 == policy.qos_ratios[0]


def test_known_kinds_cover_all_emission_sites():
    tracer = EventTracer()
    simulate_spec(
        RunSpec(mix=MIX, scheme="qos-avgcc", quota=5_000, warmup=2_000, seed=7),
        observer=tracer,
    )
    assert set(tracer.counts()) <= set(KNOWN_KINDS)
