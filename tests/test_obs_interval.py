"""Interval telemetry: the recorder, its samples, and SSL snapshots."""

import json

import pytest

from repro.api import RunSpec
from repro.execution.simulate import simulate_spec
from repro.obs import CompositeObserver, EventTracer, IntervalRecorder, Observer
from repro.obs.interval import _COUNTER_FIELDS

MIX = (471, 444)


def record(scheme, *, interval=1_000, warmup=2_000, quota=5_000, **kwargs):
    recorder = IntervalRecorder(interval=interval, **kwargs)
    result = simulate_spec(
        RunSpec(mix=MIX, scheme=scheme, quota=quota, warmup=warmup, seed=7),
        observer=recorder,
    )
    return recorder, result


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        IntervalRecorder(interval=0)
    with pytest.raises(ValueError):
        IntervalRecorder(interval=-5)


def test_samples_cover_every_core_in_order():
    recorder, result = record("avgcc")
    by_core = recorder.by_core()
    assert sorted(by_core) == [c.core_id for c in result.cores]
    for series in by_core.values():
        assert [s.index for s in series] == list(range(len(series)))
        # Cumulative coordinates are strictly increasing.
        for prev, cur in zip(series, series[1:]):
            assert cur.instructions > prev.instructions
            assert cur.cycles > prev.cycles


def test_derived_rates_match_deltas():
    recorder, _ = record("ascc")
    sample = recorder.samples[0]
    misses = sample.deltas["l2_remote_hits"] + sample.deltas["l2_memory_fetches"]
    assert sample.mpki == pytest.approx(1000.0 * misses / sample.d_instructions)
    assert sample.cpi == pytest.approx(sample.d_cycles / sample.d_instructions)
    assert sample.offchip_mpki == pytest.approx(
        1000.0 * sample.deltas["l2_memory_fetches"] / sample.d_instructions
    )
    assert set(sample.deltas) == set(_COUNTER_FIELDS)


def test_ssl_snapshot_for_ssl_policy():
    recorder, _ = record("avgcc")
    for sample in recorder.samples:
        ssl = sample.ssl
        assert ssl is not None
        assert isinstance(ssl["granularity_log2"], int)
        assert ssl["counters"] == len(ssl["values"])
        # Role histogram partitions the cache's sets.
        assert sum(ssl["roles"].values()) == 256  # default config: 256 sets
        assert 0 <= ssl["capacity_mode_sets"] <= 256
        assert 0 <= ssl["saturated_counters"] <= ssl["counters"]


def test_ssl_snapshot_values_suppressed():
    recorder, _ = record("avgcc", snapshot_sets=False)
    assert all(s.ssl["values"] is None for s in recorder.samples)
    assert all(s.ssl["roles"] for s in recorder.samples)


def test_ssl_snapshot_for_non_ssl_policy():
    recorder, _ = record("baseline")
    for sample in recorder.samples:
        assert sample.ssl["granularity_log2"] is None
        assert sum(sample.ssl["roles"].values()) == 256


def test_shared_hierarchy_has_no_ssl_snapshot():
    recorder, _ = record("shared")
    assert recorder.samples
    assert all(s.ssl is None for s in recorder.samples)


def test_no_warmup_runs_sample_from_zero():
    recorder, result = record("ascc", warmup=0)
    by_core = recorder.by_core()
    for stats in result.cores:
        series = by_core[stats.core_id]
        # Deltas still total exactly: the zero baseline is exact when
        # statistics record from the first instruction.
        assert sum(s.deltas["l2_accesses"] for s in series) == stats.l2_accesses


def test_core_names_follow_workloads():
    recorder, _ = record("ascc")
    assert recorder.core_name(0) == "471.omnetpp"
    assert recorder.core_name(1) == "444.namd"
    assert recorder.core_name(99) == "core99"


def test_json_export_round_trips():
    recorder, _ = record("avgcc", quota=3_000)
    payload = json.loads(recorder.to_json())
    assert payload["interval"] == 1_000
    assert payload["cores"] == {"0": "471.omnetpp", "1": "444.namd"}
    assert len(payload["samples"]) == len(recorder.samples)
    first = payload["samples"][0]
    assert {"core", "index", "cpi", "mpki", "deltas", "ssl"} <= set(first)


def test_composite_observer_fans_out():
    recorder = IntervalRecorder(interval=1_000)
    tracer = EventTracer()
    composite = CompositeObserver([recorder, tracer])
    assert composite.interval == 1_000  # min of the non-zero intervals
    simulate_spec(
        RunSpec(mix=MIX, scheme="ascc", quota=4_000, warmup=1_000, seed=7),
        observer=composite,
    )
    assert recorder.samples
    assert tracer.emitted > 0


def test_composite_interval_is_min_of_children():
    fast = IntervalRecorder(interval=500)
    slow = IntervalRecorder(interval=2_000)
    assert CompositeObserver([fast, slow]).interval == 500
    assert CompositeObserver([EventTracer()]).interval == 0
    assert CompositeObserver([]).interval == 0


def test_observer_base_is_inert():
    # The no-op base class must be attachable without changing results.
    spec = RunSpec(mix=MIX, scheme="ascc", quota=3_000, warmup=1_000, seed=7)
    plain = simulate_spec(spec)
    observed = simulate_spec(spec, observer=Observer())
    for a, b in zip(plain.cores, observed.cores):
        assert a == b
    assert plain.traffic == observed.traffic
