"""Fan-out and the result cache: determinism, keying, cache integrity.

The acceptance bar for the parallel path is bit-identity: the
:class:`~repro.sim.results.SystemResult` pickles produced serially, via
worker processes (``Session(jobs=2)`` → ``run_batch``), and via a warm
disk cache must match byte for byte.  Comparisons happen per result (not
on the composite ``MixOutcome``) because pickle memoises shared string
references differently depending on whether sub-objects were created
in-process or unpickled from a worker — a stream-encoding artefact, not
a data difference.
"""

import pickle

import pytest

from repro.api import CACHE_FORMAT_VERSION, RunSpec, Session
from repro.experiments.parallel import ResultCache

SPEC = RunSpec(mix=(471, 444), scheme="ascc", scale=1 / 32, quota=3_000, warmup=1_000, seed=7)

#: Every cell ``prewarm`` should cover for one spec.
CELLS = [
    SPEC,
    SPEC.replace(scheme="baseline"),
    SPEC.replace(mix=(471,), scheme="baseline"),
    SPEC.replace(mix=(444,), scheme="baseline"),
]


def result_pickles(session):
    """Canonical per-cell pickles: the bit-identity yardstick."""
    return {cell: pickle.dumps(session.result(cell)) for cell in CELLS}


@pytest.fixture(scope="module")
def serial_pickles():
    return result_pickles(Session())


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory):
    """A cache directory populated by a jobs=2 prewarm run."""
    cache_dir = tmp_path_factory.mktemp("cellcache")
    session = Session(jobs=2, cache_dir=cache_dir)
    session.prewarm([SPEC])
    return cache_dir, result_pickles(session)


def test_parallel_matches_serial(serial_pickles, warm_cache_dir):
    _, parallel_pickles = warm_cache_dir
    assert parallel_pickles == serial_pickles


def test_warm_cache_matches_serial_without_simulating(
    serial_pickles, warm_cache_dir, monkeypatch
):
    cache_dir, _ = warm_cache_dir
    monkeypatch.setattr(
        "repro.service.scheduler.simulate_spec",
        lambda *a, **k: pytest.fail("warm cache must not simulate"),
    )
    session = Session(cache_dir=cache_dir)
    report = session.prewarm([SPEC])
    assert report.counts["cache"] == len(CELLS) and report.counts["simulated"] == 0
    assert result_pickles(session) == serial_pickles


def test_outcome_metrics_match_serial(warm_cache_dir):
    cache_dir, _ = warm_cache_dir
    serial = Session().outcome(SPEC)
    cached = Session(cache_dir=cache_dir).outcome(SPEC)
    assert cached.alone_ipcs == serial.alone_ipcs
    assert cached.speedup_improvement == serial.speedup_improvement
    assert cached.fairness_improvement == serial.fairness_improvement


def test_prewarm_covers_baseline_and_alone_cells(warm_cache_dir):
    cache_dir, _ = warm_cache_dir
    cache = ResultCache(cache_dir)
    for cell in CELLS:
        assert cache.get(cell.cache_key()) is not None


def test_any_parameter_change_changes_the_key():
    key = SPEC.cache_key()
    for change in (
        dict(seed=8),
        dict(quota=4_000),
        dict(warmup=2_000),
        dict(scale=1 / 16),
        dict(scheme="avgcc"),
        dict(mix=(444, 471)),
    ):
        assert SPEC.replace(**change).cache_key() != key


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = SPEC.cache_key()
    path = tmp_path / key[:2] / f"{key}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None


# --------------------------------------------------------------------- #
# Cache integrity: checksummed entries, quarantine, stale-tmp sweep
# --------------------------------------------------------------------- #


def entry_path(cache_dir, key):
    return cache_dir / key[:2] / f"{key}.pkl"


def any_warm_key(cache_dir):
    key = CELLS[0].cache_key()
    return key, entry_path(cache_dir, key)


def test_entries_carry_magic_and_verified_checksum(warm_cache_dir):
    cache_dir, _ = warm_cache_dir
    key, path = any_warm_key(cache_dir)
    data = path.read_bytes()
    assert data.startswith(ResultCache.MAGIC)
    import hashlib

    header = len(ResultCache.MAGIC) + hashlib.sha256().digest_size
    assert hashlib.sha256(data[header:]).digest() == data[len(ResultCache.MAGIC) : header]
    assert ResultCache(cache_dir).get(key) is not None


def test_bitflip_and_truncation_quarantine_the_entry(warm_cache_dir, tmp_path):
    cache_dir, _ = warm_cache_dir
    key, path = any_warm_key(cache_dir)
    good = path.read_bytes()
    try:
        for damage in (good[:-7], good[: len(good) // 2], b""):
            path.write_bytes(damage)
            cache = ResultCache(cache_dir)
            assert cache.get(key) is None
            assert cache.quarantined == 1
            assert not path.exists()  # never servable again
            quarantined = cache_dir / ResultCache.QUARANTINE / path.name
            assert quarantined.exists()
            quarantined.unlink()
    finally:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(good)


def test_unchecksummed_v1_style_entry_misses_cleanly(tmp_path):
    key = SPEC.cache_key()
    path = entry_path(tmp_path, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"v1": "raw pickle, no magic/checksum"}))
    assert ResultCache(tmp_path).get(key) is None


def test_format_version_bumped_for_checksummed_layout():
    assert CACHE_FORMAT_VERSION >= 2


def test_stale_tmp_files_are_swept_on_init(tmp_path):
    import os

    sub = tmp_path / "ab"
    sub.mkdir()
    dead = sub / ".deadkey.999999999.tmp"  # PID far beyond pid_max
    dead.write_bytes(b"stranded by a crashed writer")
    unparsable = sub / ".weird.tmp"
    unparsable.write_bytes(b"no pid field")
    live = sub / f".livekey.{os.getpid()}.tmp"  # a writer that still exists
    live.write_bytes(b"in-flight write")
    ResultCache(tmp_path)
    assert not dead.exists()
    assert not unparsable.exists()
    assert live.exists()


def test_put_cleans_up_tmp_when_replace_fails(tmp_path, monkeypatch):
    alone = CELLS[2]
    result = Session().result(alone)
    cache = ResultCache(tmp_path)
    key = alone.cache_key()

    def boom(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr("repro.experiments.parallel.os.replace", boom)
    with pytest.raises(OSError):
        cache.put(key, result)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*/.*.tmp")), "tmp file must not be stranded"
    assert cache.get(key) is None  # nothing partial became servable
