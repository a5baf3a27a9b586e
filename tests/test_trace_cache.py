"""The materialized trace layer: memo, disk, bit-identity.

The contract under test is the one every speedup in the layer rests on:
a materialized stream replayed through any storage hop (in-process memo,
code and line blocks on disk) yields exactly the
line-address records the raw generator would have produced with the
engine's RNG seeding, record for record — whether the replay stays inside
the buffer, overflows it, or rebuilds the source after a load.
"""

import os
import subprocess
import sys
from array import array
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
    wrapped = cache.materialize_for_run(workloads, SEED)
    for core_id, (raw, proxy) in enumerate(zip(workloads, wrapped)):
        assert proxy is not raw  # benchmark instances are materializable
        assert proxy.name == raw.name and proxy.timing is raw.timing
        replayed = _drain(proxy.source(Random(0)), K)  # rng is ignored
        assert replayed == _generated(raw, core_id)


def test_memo_hit_returns_same_buffer(workloads):
    cache = TraceCache()
    first = cache.get(workloads[0], 0, SEED)
    again = cache.get(workloads[0], 0, SEED)
    assert again is first
    assert cache.stats["memo_hits"] == 1
    assert cache.stats["materialized"] == 1
    # A different core seed is a different stream, not a memo hit.
    other = cache.get(workloads[0], 1, SEED)
    assert other is not first
    assert cache.stats["materialized"] == 2


def test_distinct_parameters_distinct_digests(workloads):
    cache = TraceCache()
    base = cache.get(workloads[0], 0, SEED).digest
    assert cache.get(workloads[0], 0, SEED + 1).digest != base
    assert cache.get(workloads[1], 0, SEED).digest != base


def test_serialization_round_trip(workloads):
    cache = TraceCache()
    entry = cache.get(workloads[0], 0, SEED)
    entry.ensure(K)
    assert MaterializedTrace.decode(entry.to_bytes()) == (entry.pcs, entry.codes, entry.lines)
    empty = MaterializedTrace("d", lambda: RecordSource(()), (5,))
    assert MaterializedTrace.decode(empty.to_bytes()) == ((5,), b"", array("I"))


def test_disk_round_trip(tmp_path, workloads):
    writer = TraceCache()
    entry = writer.get(workloads[0], 0, SEED, tmp_path)
    entry.ensure(K)
    assert writer.persist(None) == 0  # no directory, nothing written
    assert writer.persist(tmp_path) == 1
    assert writer.persist(tmp_path) == 0  # unchanged buffers are not rewritten

    reader = TraceCache()
    loaded = reader.get(workloads[0], 0, SEED, tmp_path)
    assert reader.stats["disk_hits"] == 1
    assert reader.stats["materialized"] == 0
    assert loaded.records[:K] == entry.records[:K]
    # Replay past the persisted prefix continues via a seeded rebuild.
    replayed = _drain(loaded.replay(), K + 500)
    assert replayed == _generated(workloads[0], 0, K + 500)


def test_corrupt_disk_entry_regenerates(tmp_path, workloads):
    writer = TraceCache()
    entry = writer.get(workloads[0], 0, SEED)
    entry.ensure(256)
    writer.persist(tmp_path)
    (path,) = (tmp_path / "_traces").glob("*.trc")
    path.write_bytes(b"torn" + path.read_bytes()[:32])

    reader = TraceCache()
    loaded = reader.get(workloads[0], 0, SEED, tmp_path)
    assert reader.stats["disk_hits"] == 0
    assert reader.stats["materialized"] == 1
    assert not path.exists()  # torn file dropped, not trusted
    assert _drain(loaded.replay(), 256) == _generated(workloads[0], 0)[:256]


def test_finite_source_replay_terminates():
    finite = [(0, 1, 2 * LINE, False), (1, 3, 4 * LINE + 5, True)]
    lines = [(0, 1, 2, False), (1, 3, 4, True)]  # shifted once, per block
    trace = MaterializedTrace(
        "d", lambda: RecordSource(finite), (1, 3), source=RecordSource(finite)
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
    assert cache.get(opaque, 0, SEED) is None
    assert cache.materialize_for_run([opaque], SEED) == [opaque]


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
    PCS = (0x4000, 0x4001, 0x5002)

    def source(sleep: bool):
        for i in range(length):
            if sleep and i % _FILL_STEP == 0:
                time.sleep(0.05)
            yield (i % 7, PCS[i % 3], i * 64, i % 3 == 0)

    reference = [(g, p, a // LINE, w) for g, p, a, w in source(False)]
    trace = MaterializedTrace(
        "d", lambda: RecordSource(source(True)), PCS, source=RecordSource(source(True))
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
        entry = cache.get(raw, core_id, SEED)
        assert len(entry.records) == 0  # nothing is generated until replay
        assert _drain(entry.replay(), K) == _generated(raw, core_id)


def test_prefix_plus_overflow_equals_generator_output(workloads):
    entry = TraceCache().get(workloads[1], 1, SEED)
    entry.ensure(700)
    prefix = len(entry.records)
    # Odd block sizes straddle the prefix end; the overflow grows the
    # buffer instead of yielding records one by one.
    replayed = _drain(entry.replay(), prefix + 2_500, block=333)
    assert replayed == _generated(workloads[1], 1, prefix + 2_500)
    assert len(entry.records) >= prefix + 2_500
    assert entry.records[prefix] == replayed[prefix]


def test_two_threads_replay_a_real_stream_past_the_prefix(workloads):
    import threading

    entry = TraceCache().get(workloads[0], 0, SEED)
    n = 20_000  # many extensions past the first replayed block
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


def test_columns_cost_at_most_5_bytes_per_record(workloads):
    for proxy in TraceCache().materialize_for_run(workloads, SEED):
        entry = proxy.materialized
        _drain(proxy.source(Random(0)), K)  # a buffer grows only as replay reads
        records = len(entry.records)
        assert records >= K
        assert entry.layout == NARROW
        assert entry.nbytes / records <= 5
        allocated = sys.getsizeof(entry.codes) + sys.getsizeof(entry.lines)
        assert allocated / records <= 6


#: 33 cores, one 4 GB span each: the last two sit above 2**37 bytes, so
#: their line addresses pass 2**32.
WIDE_MIX = (471, 444) * 16 + (429,)


def test_wide_line_addresses_replay_through_every_layer(tmp_path, monkeypatch):
    """Streams past 2**32 lines take the wide line column and replay
    record for record and digest for digest through the memo, the disk
    and the generator path."""
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec
    from repro.workloads.trace_cache import get_trace_cache, reset_trace_cache

    spec = RunSpec(mix=WIDE_MIX, scheme="avgcc", quota=600, warmup=200, seed=SEED)
    raw = make_workloads(WIDE_MIX)
    top = len(raw) - 1

    def replayed_digest(cache) -> str:
        result = simulate_spec(spec.replace(trace_cache=True), cache_dir=tmp_path)
        entry = cache.get(raw[top], top, SEED)
        assert entry.layout == WIDE
        assert min(entry.lines) > 1 << 32
        assert entry.records[:] == _generated(raw[top], top, len(entry.records))
        assert cache.get(raw[0], 0, SEED).layout == NARROW
        return result_digest(result)

    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    generated = result_digest(simulate_spec(spec))
    monkeypatch.delenv("REPRO_TRACE_CACHE")
    reset_trace_cache()
    try:
        parent = get_trace_cache()
        memo = replayed_digest(parent)
        assert parent.persist(tmp_path) == len(WIDE_MIX)
        reset_trace_cache()
        disk = replayed_digest(get_trace_cache())
        assert get_trace_cache().stats["disk_hits"] == len(WIDE_MIX)
    finally:
        reset_trace_cache()
    assert memo == disk == generated


def test_first_use_of_a_trace_dir_unlinks_older_format_files(tmp_path, workloads):
    import struct

    traces = tmp_path / "_traces"
    traces.mkdir()
    stale = traces / f"{'ab' * 32}.trc"
    stale.write_bytes(struct.pack("<4sQ", b"RTR2", 0))  # a version-2 buffer
    in_flight = traces / ".cd.trc.99999999.tmp"
    in_flight.write_bytes(b"RTR2")

    writer = TraceCache()
    entry = writer.get(workloads[0], 0, SEED, tmp_path)
    assert not stale.exists()
    assert in_flight.exists()  # another process's write in progress
    entry.ensure(256)
    assert writer.persist(tmp_path) == 1
    (current,) = traces.glob("*.trc")

    reader = TraceCache()
    reader.get(workloads[0], 0, SEED, tmp_path)
    assert current.exists()
    assert reader.stats["disk_hits"] == 1


def test_memo_evicts_least_recently_used_streams_by_bytes(workloads):
    probe = TraceCache().get(workloads[0], 0, 1)
    probe.ensure(1)
    stream_bytes = probe.nbytes
    cache = TraceCache(max_bytes=int(2.5 * stream_bytes))
    first = cache.get(workloads[0], 0, 1)
    second = cache.get(workloads[0], 0, 2)
    for entry in (first, second):
        entry.ensure(1)
    assert cache.get(workloads[0], 0, 1) is first  # now MRU
    third = cache.get(workloads[0], 0, 3)
    third.ensure(1)
    # Three full streams exceed the bound: the next insertion drops the
    # least recently used one (the second), and only that one.
    cache.get(workloads[0], 0, 4)
    materialized = cache.stats["materialized"]
    assert cache.get(workloads[0], 0, 1) is first
    assert cache.get(workloads[0], 0, 3) is third
    assert cache.stats["materialized"] == materialized
    assert cache.get(workloads[0], 0, 2) is not second
    assert cache.stats["materialized"] == materialized + 1


def test_first_extension_follows_the_run_estimate():
    """A short cell generates only what it replays, not a fixed extension."""
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
            entry = cache.get(raw, core_id, SEED)
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


def test_pool_workers_persist_the_traces_they_grow(tmp_path, monkeypatch):
    """A ``jobs=2`` batch with a cache dir leaves ``.trc`` files behind:
    each pool worker persists the streams it materialized, so a fresh
    process serves every stream from disk without generating one."""
    from repro.service import run_batch
    from repro.workloads import trace_cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache())
    specs = [
        RunSpec(mix=MIX, scheme=scheme, quota=QUOTA, warmup=WARMUP, seed=seed)
        for seed in (SEED, SEED + 1)
        for scheme in ("baseline", "avgcc")
    ]
    _outcomes, stats, _report = run_batch(specs, jobs=2, cache_dir=tmp_path)
    assert stats.failed == 0 and stats.executed == len(specs)
    assert list((tmp_path / "_traces").glob("*.trc"))

    fresh = TraceCache()
    for seed in (SEED, SEED + 1):
        for core_id, workload in enumerate(make_workloads(MIX)):
            entry = fresh.get(workload, core_id, seed, tmp_path)
            assert len(entry.records) > 0
    assert fresh.stats["materialized"] == 0
    assert fresh.stats["disk_hits"] == 2 * len(MIX)


# --------------------------------------------------------------------- #
# The code byte: what fits, what keeps the generator path
# --------------------------------------------------------------------- #


def _model(code: int, **changes):
    from dataclasses import replace

    from repro.sim.config import ScaleModel
    from repro.workloads.spec2006 import benchmark

    return replace(benchmark(code), **changes).instantiate(ScaleModel(), 0)


def test_extreme_codes_replay_equal_generator_output():
    """Gaps 0 and 31, both store flags and all four PCs survive packing."""
    workload = _model(473, gap=(0, 31), write_fraction=0.5)
    assert len(workload.spec.pcs) == 4
    entry = TraceCache().get(workload, 0, SEED)
    replayed = _drain(entry.replay(), K)
    assert replayed == _generated(workload, 0)
    assert {record[0] for record in replayed} >= {0, 31}
    assert {record[1] for record in replayed} == set(workload.spec.pcs)
    assert {record[3] for record in replayed} == {False, True}


@pytest.mark.parametrize("case", ["gap", "components"])
def test_models_that_do_not_fit_the_code_byte_keep_the_generator_path(case):
    from repro.workloads.spec2006 import benchmark

    if case == "gap":
        workload = _model(471, gap=(1, 32))
    else:
        five = benchmark(473).components + benchmark(471).components[:1]
        workload = _model(473, components=five)
    cache = TraceCache()
    assert cache.get(workload, 0, SEED) is None
    assert cache.materialize_for_run([workload], SEED) == [workload]
    assert cache.stats == {"memo_hits": 0, "disk_hits": 0, "materialized": 0}


@pytest.mark.parametrize(
    "record", [(32, 1, 64, False), (-1, 1, 64, False), (0, 2, 64, False), (0, 257, 64, False)]
)
def test_a_record_that_does_not_fit_raises(record):
    trace = MaterializedTrace(
        "d", lambda: RecordSource([record]), (1, 3), source=RecordSource([record])
    )
    with pytest.raises(ValueError):
        trace.ensure(1)
    assert len(trace.records) == 0


def test_trc_names_and_rtr4_files_written_before_lazy_digests_still_load(
    tmp_path, workloads
):
    """A ``.trc`` file is still named by the SHA-256 of ``repr((4,
    signature, core_seed))`` and laid out as RTR4, so a trace directory
    written before the memo stopped keying on that digest loads from
    disk with no regeneration.  The file is built here from the
    generator's records, independently of the trace layer's packer."""
    import hashlib
    import struct

    raw, core_seed = workloads[0], SEED << 8
    name = hashlib.sha256(repr((4, raw.trace_signature(), core_seed)).encode()).hexdigest()
    assert TraceCache.digest_for(raw.trace_signature(), core_seed) == name
    records = _generated(raw, 0)
    pcs = raw.spec.pcs
    header = struct.pack(
        "<4sQ1sB4I", b"RTR4", K, b"I", len(pcs), *pcs, *[0] * (4 - len(pcs))
    )
    codes = bytes(gap << 3 | write << 2 | pcs.index(pc) for gap, pc, _, write in records)
    lines = array("I", [line for _, _, line, _ in records]).tobytes()
    (tmp_path / "_traces").mkdir()
    (tmp_path / "_traces" / f"{name}.trc").write_bytes(header + codes + lines)

    cache = TraceCache()
    entry = cache.get(raw, 0, SEED, tmp_path)
    assert cache.stats == {"memo_hits": 0, "disk_hits": 1, "materialized": 0}
    assert entry.digest == name and len(entry.records) == K
    assert _drain(entry.replay(), K, block=K // 3) == records
    assert cache.persist(tmp_path) == 0  # replay stayed inside the file


def test_an_rtr3_file_is_swept_and_its_stream_regenerates(tmp_path, workloads):
    import struct

    cache = TraceCache()
    digest = cache.digest_for(workloads[0].trace_signature(), SEED << 8)
    traces = tmp_path / "_traces"
    traces.mkdir()
    stale = traces / f"{digest}.trc"
    stale.write_bytes(struct.pack("<4sQ4s", b"RTR3", 0, b"BIIB"))

    entry = cache.get(workloads[0], 0, SEED, tmp_path)
    assert not stale.exists()
    assert cache.stats["disk_hits"] == 0 and cache.stats["materialized"] == 1
    assert _drain(entry.replay(), K) == _generated(workloads[0], 0)
    assert cache.persist(tmp_path) == 1
    assert stale.read_bytes()[:4] == b"RTR4"


# --------------------------------------------------------------------- #
# One buffer per stream; the trace directory travels with the cell
# --------------------------------------------------------------------- #


def test_runs_of_any_length_share_one_buffer_per_stream(monkeypatch):
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec
    from repro.workloads import trace_cache

    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache())
    specs = [
        RunSpec(mix=MIX, scheme="avgcc", quota=quota, warmup=WARMUP, seed=SEED)
        for quota in (QUOTA, 2 * QUOTA)
    ]
    replayed = [result_digest(simulate_spec(spec.replace(trace_cache=True))) for spec in specs]
    cache = trace_cache.get_trace_cache()
    assert len(cache._memo) == len(MIX)
    assert cache.stats["materialized"] == len(MIX)
    assert cache.stats["memo_hits"] == len(MIX)
    generated = [result_digest(simulate_spec(spec.replace(trace_cache=False))) for spec in specs]
    assert replayed == generated
    assert replayed[0] != replayed[1]


def test_a_batch_without_a_cache_dir_leaves_an_earlier_batchs_traces_alone(
    tmp_path, monkeypatch
):
    from repro.service import run_batch
    from repro.workloads import trace_cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache())
    params = dict(scheme="baseline", quota=QUOTA, warmup=WARMUP, seed=SEED)
    traces = tmp_path / "_traces"
    run_batch([RunSpec(mix=MIX, **params)], jobs=1, cache_dir=tmp_path)
    assert len(list(traces.glob("*.trc"))) == len(MIX)
    _outcomes, stats, _report = run_batch([RunSpec(mix=(429, 401), **params)], jobs=1)
    assert stats.executed == 1
    assert len(list(traces.glob("*.trc"))) == len(MIX)


def test_a_stream_already_persisted_elsewhere_is_written_to_a_new_cache_dir(
    tmp_path, monkeypatch
):
    from repro.service import run_batch
    from repro.workloads import trace_cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache())
    one = [RunSpec(mix=MIX, scheme="baseline", quota=QUOTA, warmup=WARMUP, seed=SEED)]
    first, second = tmp_path / "a", tmp_path / "b"
    run_batch(one, jobs=1, cache_dir=first)
    run_batch(one, jobs=1, cache_dir=second)  # replays the memo's buffers
    assert len(list((first / "_traces").glob("*.trc"))) == len(MIX)
    assert len(list((second / "_traces").glob("*.trc"))) == len(MIX)
    fresh = TraceCache()
    for core, workload in enumerate(make_workloads(MIX)):
        assert fresh.get(workload, core, SEED, second) is not None
    assert fresh.stats["materialized"] == 0
    assert fresh.stats["disk_hits"] == len(MIX)


_SPAWNED_BATCH = """
import multiprocessing
import sys

from repro.api.spec import RunSpec
from repro.service import run_batch
from repro.workloads.mixes import make_workloads
from repro.workloads.trace_cache import TraceCache

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    cache_dir, mix, seeds = sys.argv[1], (471, 444), (7, 8)
    specs = [
        RunSpec(mix=mix, scheme=scheme, quota=4000, warmup=2000, seed=seed)
        for seed in seeds
        for scheme in ("baseline", "avgcc")
    ]
    _outcomes, stats, _report = run_batch(specs, jobs=2, cache_dir=cache_dir)
    assert stats.failed == 0 and stats.executed == len(specs), stats
    fresh = TraceCache()
    for seed in seeds:
        for core_id, workload in enumerate(make_workloads(mix)):
            entry = fresh.get(workload, core_id, seed, cache_dir)
            assert len(entry.records) > 0
    assert fresh.stats["materialized"] == 0, fresh.stats
    print("ok", multiprocessing.get_start_method())
"""


def test_spawned_pool_workers_load_and_persist_their_traces(tmp_path):
    """Pool workers that inherit nothing (``spawn``, as ``forkserver``)
    still get their cell's trace directory: it rides the payload."""
    script = tmp_path / "spawned_batch.py"
    script.write_text(_SPAWNED_BATCH)
    env = {**os.environ, "REPRO_TRACE_CACHE": "1"}
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok", "spawn"]
