"""The materialized trace layer: memo, disk, shared memory, bit-identity.

The contract under test is the one every speedup in the layer rests on:
a materialized stream replayed through any storage hop (in-process memo,
raw column blocks on disk, a shared-memory segment) yields exactly the
line-address records the raw generator would have produced with the
engine's RNG seeding, record for record — whether the replay stays inside
the buffer, overflows it, or rebuilds the source after a load.
"""

import subprocess
import sys
from random import Random

import pytest

from repro.api.spec import RunSpec
from repro.policies.registry import available_schemes
from repro.sim.engine import BLOCK, RecordSource
from repro.workloads.generators import LINE
from repro.workloads.mixes import make_workloads
from repro.workloads.trace_cache import (
    NARROW,
    WIDE,
    MaterializedTrace,
    TraceCache,
    env_enabled,
)

MIX = (471, 444)
SEED = 7
QUOTA = 4_000
WARMUP = 2_000
K = 3_000  # records compared per stream


def _drain(source, limit=None, block=BLOCK) -> list:
    """Flatten a block source into tuple records (up to ``limit``)."""
    out: list = []
    while limit is None or len(out) < limit:
        gaps, pcs, lines, writes = source.fill(block)
        if not len(gaps):
            break
        out.extend(zip(gaps, pcs, lines, map(bool, writes)))
    return out if limit is None else out[:limit]


def _generated(workload, core_id: int, n: int = K) -> list:
    """What the engine would consume without the trace layer."""
    return _drain(workload.source(Random((SEED << 8) + core_id)), n)


@pytest.fixture()
def workloads():
    return make_workloads(MIX)


def test_replay_equals_generator_output(workloads):
    cache = TraceCache()
    wrapped = cache.wrap_workloads(workloads, SEED, QUOTA, WARMUP)
    for core_id, (raw, proxy) in enumerate(zip(workloads, wrapped)):
        assert proxy is not raw  # benchmark instances are materializable
        assert proxy.name == raw.name and proxy.timing is raw.timing
        replayed = _drain(proxy.source(Random(0)), K)  # rng is ignored
        assert replayed == _generated(raw, core_id)


def test_memo_hit_returns_same_buffer(workloads):
    cache = TraceCache()
    first = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    again = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert again is first
    assert cache.stats["memo_hits"] == 1
    assert cache.stats["materialized"] == 1
    # A different core seed is a different stream, not a memo hit.
    other = cache.get(workloads[0], 1, SEED, QUOTA, WARMUP)
    assert other is not first
    assert cache.stats["materialized"] == 2


def test_distinct_parameters_distinct_digests(workloads):
    cache = TraceCache()
    base = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP).digest
    assert cache.get(workloads[0], 0, SEED + 1, QUOTA, WARMUP).digest != base
    assert cache.get(workloads[0], 0, SEED, QUOTA + 1, WARMUP).digest != base
    assert cache.get(workloads[0], 0, SEED, QUOTA, WARMUP + 1).digest != base


def test_serialization_round_trip(workloads):
    cache = TraceCache()
    entry = cache.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(K)
    assert MaterializedTrace.decode(entry.to_bytes()) == entry.columns
    empty = MaterializedTrace("d", lambda: RecordSource(()))
    assert [len(column) for column in MaterializedTrace.decode(empty.to_bytes())] == [0] * 4


def test_disk_round_trip(tmp_path, workloads):
    writer = TraceCache(cache_dir=tmp_path)
    entry = writer.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(K)
    assert writer.persist() == 1
    assert writer.persist() == 0  # unchanged buffers are not rewritten

    reader = TraceCache(cache_dir=tmp_path)
    loaded = reader.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert reader.stats["disk_hits"] == 1
    assert reader.stats["materialized"] == 0
    assert loaded.records[:K] == entry.records[:K]
    # Replay past the persisted prefix continues via a seeded rebuild.
    replayed = _drain(loaded.replay(), K + 500)
    assert replayed == _generated(workloads[0], 0, K + 500)


def test_corrupt_disk_entry_regenerates(tmp_path, workloads):
    writer = TraceCache(cache_dir=tmp_path)
    entry = writer.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(256)
    writer.persist()
    (path,) = (tmp_path / "_traces").glob("*.trc")
    path.write_bytes(b"torn" + path.read_bytes()[:32])

    reader = TraceCache(cache_dir=tmp_path)
    loaded = reader.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert reader.stats["disk_hits"] == 0
    assert reader.stats["materialized"] == 1
    assert not path.exists()  # torn file dropped, not trusted
    assert _drain(loaded.replay(), 256) == _generated(workloads[0], 0)[:256]


def test_shared_memory_view_equals_generator_output(workloads):
    parent = TraceCache()
    parent.materialize_for_run(workloads, SEED, QUOTA, WARMUP)
    mapping = parent.export_shared()
    assert len(mapping) == len(workloads)
    try:
        worker = TraceCache()
        worker.attach_shared(mapping)
        for core_id, raw in enumerate(workloads):
            entry = worker.get(raw, core_id, SEED, QUOTA, WARMUP)
            assert worker.stats["shm_hits"] == core_id + 1
            assert entry.records[:K] == _generated(raw, core_id)
    finally:
        parent.close_shared()


def test_shared_attach_leaves_the_resource_tracker_alone(workloads, monkeypatch):
    """Pool workers share the parent's resource tracker: an attach that
    registered (or unregistered) there could drop the parent's own
    registration, twice over when two workers attach one segment."""
    from multiprocessing import resource_tracker

    parent = TraceCache()
    parent.materialize_for_run(workloads, SEED, QUOTA, WARMUP)
    mapping = parent.export_shared()
    calls = []
    for name in ("register", "unregister"):
        monkeypatch.setattr(
            resource_tracker, name, lambda *args, name=name: calls.append((name, args))
        )
    try:
        for _ in range(2):
            worker = TraceCache()
            worker.attach_shared(mapping)
            worker.get(workloads[0], 0, SEED, QUOTA, WARMUP)
            assert worker.stats["shm_hits"] == 1
    finally:
        monkeypatch.undo()
        parent.close_shared()
    assert calls == []


def test_export_shared_copies_only_new_or_grown_buffers(workloads):
    parent = TraceCache()
    (first, *_rest) = parent.materialize_for_run(workloads, SEED, QUOTA, WARMUP)
    try:
        mapping = parent.export_shared()
        assert len(parent._exports) == len(workloads)
        assert parent.export_shared() == mapping  # nothing new: no copies
        assert len(parent._exports) == len(workloads)
        first.ensure(first.length + BLOCK)  # one buffer grows
        grown = parent.export_shared()
        assert len(parent._exports) == len(workloads) + 1
        assert grown[first.digest] != mapping[first.digest]
        assert {d: n for d, n in grown.items() if d != first.digest} == {
            d: n for d, n in mapping.items() if d != first.digest
        }
        worker = TraceCache()
        worker.attach_shared(grown)
        entry = worker.get(workloads[0], 0, SEED, QUOTA, WARMUP)
        assert entry.length == first.length
    finally:
        parent.close_shared()
    assert parent._exported == {} and parent._exports == []


def test_finite_source_replay_terminates():
    finite = [(0, 1, 2 * LINE, False), (1, 3, 4 * LINE + 5, True)]
    lines = [(0, 1, 2, False), (1, 3, 4, True)]  # shifted once, per block
    trace = MaterializedTrace(
        "d", lambda: RecordSource(finite), source=RecordSource(finite)
    )
    assert _drain(trace.replay()) == lines
    assert _drain(trace.replay()) == lines  # replays, does not re-drain
    assert len(trace.records) == 2


def test_non_materializable_workloads_pass_through():
    class Opaque:
        name = "opaque"
        timing = None

        def trace(self, rng):  # pragma: no cover - never drained here
            return iter(())

    cache = TraceCache()
    opaque = Opaque()
    assert cache.get(opaque, 0, SEED, QUOTA, WARMUP) is None
    assert cache.wrap_workloads([opaque], SEED, QUOTA, WARMUP) == [opaque]


def test_trace_cache_knob_outside_result_cache_key():
    on = RunSpec(mix=MIX, trace_cache=True)
    off = RunSpec(mix=MIX, trace_cache=False)
    default = RunSpec(mix=MIX)
    assert on.cache_key() == off.cache_key() == default.cache_key()
    assert on.key_tuple() == off.key_tuple()
    # ...but the knob itself survives a serialization round trip.
    assert RunSpec.from_dict(on.to_dict()).trace_cache is True
    assert RunSpec.from_dict(off.to_dict()).trace_cache is False
    assert RunSpec.from_dict(default.to_dict()).trace_cache is None


def test_env_flag_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert env_enabled()
    for off in ("0", "false", "no", "off"):
        monkeypatch.setenv("REPRO_TRACE_CACHE", off)
        assert not env_enabled()
    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    assert env_enabled()


def test_result_cache_sweep_leaves_trace_files_alone(tmp_path):
    from repro.experiments.parallel import ResultCache

    traces = tmp_path / "_traces"
    traces.mkdir()
    keep = traces / ".deadbeef.trc.99999999.tmp"
    keep.write_bytes(b"in-flight trace write")
    stale_dir = tmp_path / "ab"
    stale_dir.mkdir()
    stale = stale_dir / ".abcd.pkl.99999999.tmp"
    stale.write_bytes(b"stranded result write")

    ResultCache(tmp_path)  # init sweeps stale result tmp files

    assert keep.exists(), "sweep must not touch the trace store"
    assert not stale.exists(), "stranded result tmp files are swept"


def test_concurrent_replays_past_the_prefix_share_one_generator():
    """Several threads (a worker's slots) overrun one buffer at once.

    The source sleeps inside ``next()`` so the other threads arrive
    while one is mid-extension; every thread must still see the
    reference stream, record for record.
    """
    import sys
    import threading
    import time

    from repro.workloads.trace_cache import _FILL_STEP

    length = 2 * _FILL_STEP + 100
    slots = 4

    def source(sleep: bool):
        for i in range(length):
            if sleep and i % _FILL_STEP == 0:
                time.sleep(0.05)
            yield (i % 7, i, i * 64, i % 3 == 0)

    reference = [(g, p, a // LINE, w) for g, p, a, w in source(False)]
    trace = MaterializedTrace(
        "d", lambda: RecordSource(source(True)), source=RecordSource(source(True))
    )
    start = threading.Barrier(slots)
    seen: list = [None] * slots
    errors: list = []

    def replay(slot: int) -> None:
        start.wait()
        try:
            seen[slot] = _drain(trace.replay())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=replay, args=(slot,)) for slot in range(slots)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(replayed == reference for replayed in seen)


# --------------------------------------------------------------------- #
# Columnar buffers: every way a block can be produced
# --------------------------------------------------------------------- #


def test_fresh_stream_blocks_equal_generator_output(workloads):
    cache = TraceCache()
    for core_id, raw in enumerate(workloads):
        entry = cache.get(raw, core_id, SEED, QUOTA, WARMUP)
        assert len(entry.records) == 0  # nothing is generated until replay
        assert _drain(entry.replay(), K) == _generated(raw, core_id)


def test_prefix_plus_overflow_equals_generator_output(workloads):
    entry = TraceCache().get(workloads[1], 1, SEED, QUOTA, WARMUP)
    entry.ensure(700)
    prefix = len(entry.records)
    # Odd block sizes straddle the prefix end; the overflow grows the
    # buffer instead of yielding records one by one.
    replayed = _drain(entry.replay(), prefix + 2_500, block=333)
    assert replayed == _generated(workloads[1], 1, prefix + 2_500)
    assert len(entry.records) >= prefix + 2_500
    assert entry.records[prefix] == replayed[prefix]


def test_shared_memory_load_rebuilds_past_the_prefix(workloads):
    parent = TraceCache()
    entry = parent.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    entry.ensure(1)  # the first extension: the run's own estimate
    prefix = len(entry.records)
    n = prefix + 2_000
    mapping = parent.export_shared()
    try:
        worker = TraceCache()
        worker.attach_shared(mapping)
        loaded = worker.get(workloads[0], 0, SEED, QUOTA, WARMUP)
        assert worker.stats["shm_hits"] == 1
        assert len(loaded.records) == prefix
        assert _drain(loaded.replay(), n) == _generated(workloads[0], 0, n)
    finally:
        parent.close_shared()


def test_two_threads_replay_a_real_stream_past_the_prefix(workloads):
    import threading

    entry = TraceCache().get(workloads[0], 0, SEED, QUOTA, WARMUP)
    n = 20_000  # several extensions beyond the first (about 5.2k records)
    reference = _generated(workloads[0], 0, n)
    seen: list = [None, None]

    def replay(slot: int) -> None:
        seen[slot] = _drain(entry.replay(), n, block=BLOCK + slot)

    threads = [threading.Thread(target=replay, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert seen == [reference, reference]


def test_columns_cost_at_most_10_bytes_per_record(workloads):
    for entry in TraceCache().materialize_for_run(workloads, SEED, QUOTA, WARMUP):
        records = len(entry.records)
        assert records > 0
        assert entry.layout == NARROW
        assert entry.nbytes / records <= 10
        allocated = sum(sys.getsizeof(column) for column in entry.columns)
        assert allocated / records <= 12


#: 33 cores, one 4 GB span each: the last two sit above 2**37 bytes, so
#: their line addresses pass 2**32.
WIDE_MIX = (471, 444) * 16 + (429,)


def test_wide_line_addresses_replay_through_every_layer(tmp_path, monkeypatch):
    """Streams past 2**32 lines take the wide line column and replay
    record for record and digest for digest through the memo, the disk,
    shared memory and the generator path."""
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec
    from repro.workloads.trace_cache import get_trace_cache, reset_trace_cache

    spec = RunSpec(mix=WIDE_MIX, scheme="avgcc", quota=600, warmup=200, seed=SEED)
    raw = make_workloads(WIDE_MIX)
    top = len(raw) - 1

    def replayed_digest(cache) -> str:
        result = simulate_spec(spec.replace(trace_cache=True))
        entry = cache.get(raw[top], top, SEED, spec.quota, spec.warmup)
        assert entry.layout == WIDE
        assert min(entry.columns[2]) > 1 << 32
        assert entry.records[:] == _generated(raw[top], top, len(entry.records))
        assert cache.get(raw[0], 0, SEED, spec.quota, spec.warmup).layout == NARROW
        return result_digest(result)

    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    generated = result_digest(simulate_spec(spec))
    monkeypatch.delenv("REPRO_TRACE_CACHE")
    reset_trace_cache()
    try:
        parent = get_trace_cache()
        parent.set_cache_dir(tmp_path)
        memo = replayed_digest(parent)
        assert parent.persist() == len(WIDE_MIX)
        mapping = parent.export_shared()
        try:
            reset_trace_cache()
            get_trace_cache().set_cache_dir(tmp_path)
            disk = replayed_digest(get_trace_cache())
            assert get_trace_cache().stats["disk_hits"] == len(WIDE_MIX)
            reset_trace_cache()
            get_trace_cache().attach_shared(mapping)
            shm = replayed_digest(get_trace_cache())
            assert get_trace_cache().stats["shm_hits"] == len(WIDE_MIX)
        finally:
            parent.close_shared()
    finally:
        reset_trace_cache()
    assert memo == disk == shm == generated


def test_first_use_of_a_trace_dir_unlinks_older_format_files(tmp_path, workloads):
    import struct

    traces = tmp_path / "_traces"
    traces.mkdir()
    stale = traces / f"{'ab' * 32}.trc"
    stale.write_bytes(struct.pack("<4sQ", b"RTR2", 0))  # a version-2 buffer
    in_flight = traces / ".cd.trc.99999999.tmp"
    in_flight.write_bytes(b"RTR2")

    writer = TraceCache(cache_dir=tmp_path)
    entry = writer.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert not stale.exists()
    assert in_flight.exists()  # another process's write in progress
    entry.ensure(256)
    assert writer.persist() == 1
    (current,) = traces.glob("*.trc")

    reader = TraceCache(cache_dir=tmp_path)
    reader.get(workloads[0], 0, SEED, QUOTA, WARMUP)
    assert current.exists()
    assert reader.stats["disk_hits"] == 1


def test_memo_evicts_least_recently_used_streams_by_bytes(workloads):
    probe = TraceCache().get(workloads[0], 0, 1, QUOTA, WARMUP)
    probe.ensure(1)
    stream_bytes = probe.nbytes
    cache = TraceCache(max_bytes=int(2.5 * stream_bytes))
    first = cache.get(workloads[0], 0, 1, QUOTA, WARMUP)
    second = cache.get(workloads[0], 0, 2, QUOTA, WARMUP)
    for entry in (first, second):
        entry.ensure(1)
    assert cache.get(workloads[0], 0, 1, QUOTA, WARMUP) is first  # now MRU
    third = cache.get(workloads[0], 0, 3, QUOTA, WARMUP)
    third.ensure(1)
    # Three full streams exceed the bound: the next insertion drops the
    # least recently used one (the second), and only that one.
    cache.get(workloads[0], 0, 4, QUOTA, WARMUP)
    materialized = cache.stats["materialized"]
    assert cache.get(workloads[0], 0, 1, QUOTA, WARMUP) is first
    assert cache.get(workloads[0], 0, 3, QUOTA, WARMUP) is third
    assert cache.stats["materialized"] == materialized
    assert cache.get(workloads[0], 0, 2, QUOTA, WARMUP) is not second
    assert cache.stats["materialized"] == materialized + 1


def test_first_extension_follows_the_run_estimate():
    """A short cell generates about its own need, not a fixed extension."""
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec
    from repro.workloads.trace_cache import get_trace_cache, reset_trace_cache

    mix = (429, 401)  # balanced: neither core runs far past its quota
    spec = RunSpec(mix=mix, scheme="avgcc", quota=4_000, warmup=2_000, seed=SEED)
    reset_trace_cache()
    try:
        replayed = simulate_spec(spec.replace(trace_cache=True))
        cache = get_trace_cache()
        for core_id, raw in enumerate(make_workloads(mix)):
            entry = cache.get(raw, core_id, SEED, 4_000, 2_000)
            assert 0 < len(entry.records) < 8_000
    finally:
        reset_trace_cache()
    generated = simulate_spec(spec.replace(trace_cache=False))
    assert result_digest(replayed) == result_digest(generated)


SCHEMES = sorted(available_schemes()) + ["shared"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_engine_digest_identical_with_trace_cache_on_and_off(scheme):
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec

    spec = RunSpec(mix=MIX, scheme=scheme, quota=1_500, warmup=500, seed=SEED)
    on = simulate_spec(spec.replace(trace_cache=True))
    off = simulate_spec(spec.replace(trace_cache=False))
    assert result_digest(on) == result_digest(off)


def test_import_path_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "import repro.api\n"
        "from repro.api import RunSpec, Session\n"
        "from repro.execution.simulate import simulate_spec\n"
        "Session()\n"
        "simulate_spec(RunSpec(mix=(471, 444), quota=500, warmup=100))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
