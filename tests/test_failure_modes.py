"""End-to-end failure modes on the real (tiny) simulation stack.

Acceptance bar for the fault-tolerant execution path (``run_batch`` and
the :class:`~repro.api.Session` built on it): every injected failure — a
worker dying hard mid-batch, a cell hanging past its timeout, a
corrupted cache entry — must leave the sweep *complete* with results
identical to a fault-free run, and the :class:`RunReport` must account
for the recovery.
"""

import json
import pickle

import pytest

from repro.api import RunSpec, Session, run_batch
from repro.execution.faults import Fault, FaultPlan
from repro.execution.report import ExecutorError
from repro.experiments.parallel import ResultCache

SPEC = RunSpec(mix=(471, 444), scheme="ascc", scale=1 / 32, quota=3_000, warmup=1_000, seed=7)

#: Every cell a session prewarms for ``SPEC``, in submission order.
CELLS = [
    SPEC,
    SPEC.replace(scheme="baseline"),
    SPEC.replace(mix=(471,), scheme="baseline"),
    SPEC.replace(mix=(444,), scheme="baseline"),
]


@pytest.fixture(scope="module")
def fault_free_pickles():
    session = Session()
    return {cell: pickle.dumps(session.result(cell)) for cell in CELLS}


def chaos_batch(tmp_path, plan, **overrides):
    """Run ``CELLS`` through ``run_batch`` under ``plan``; return
    ``(outcomes, report)``."""
    kwargs = dict(
        jobs=2,
        cache_dir=tmp_path,
        retries=2,
        journal=False,
        executor_options={"fault_plan": plan, "backoff": 0.01},
    )
    kwargs.update(overrides)
    outcomes, _stats, report = run_batch(CELLS, **kwargs)
    return outcomes, report


def assert_matches_fault_free(results, fault_free_pickles):
    for cell, result in zip(CELLS, results):
        assert pickle.dumps(result) == fault_free_pickles[cell], cell


def test_worker_killed_mid_prewarm_recovers(tmp_path, fault_free_pickles):
    plan = FaultPlan({CELLS[2]: Fault("die")})
    outcomes, report = chaos_batch(tmp_path, plan)
    assert report.pool_deaths >= 1
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    assert_matches_fault_free(outcomes, fault_free_pickles)


def test_hung_cell_hits_timeout_and_is_recomputed(tmp_path, fault_free_pickles):
    plan = FaultPlan({CELLS[1]: Fault("hang", seconds=30.0)})
    outcomes, report = chaos_batch(tmp_path, plan, timeout=2.0)
    assert report.timeouts == 1
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    assert_matches_fault_free(outcomes, fault_free_pickles)


def test_seeded_chaos_sweep_completes_with_accurate_report(
    tmp_path, fault_free_pickles
):
    plan = FaultPlan.from_spec("crash=1,hang=1,corrupt=1", seed=3, hang_seconds=30.0)
    outcomes, report = chaos_batch(tmp_path, plan, timeout=2.0)
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    # Three cells each needed one recovery attempt, all accounted for.
    assert report.retried + report.pool_deaths >= 3
    assert report.total_attempts >= 4 + 3 - report.pool_deaths
    assert_matches_fault_free(outcomes, fault_free_pickles)
    # The JSON manifest next to the cache tells the same story.
    manifest = json.loads((tmp_path / "run_report.json").read_text())
    assert manifest["counts"] == report.counts
    errors = [err for cell in manifest["cells"] for err in cell["errors"]]
    assert errors, "recoveries must be recorded per cell"


def test_corrupted_cache_entry_is_quarantined_and_recomputed(
    tmp_path, fault_free_pickles
):
    Session(cache_dir=tmp_path).prewarm([SPEC])
    # Flip bytes inside one entry's payload (checksum now mismatches).
    key = CELLS[0].cache_key()
    path = tmp_path / key[:2] / f"{key}.pkl"
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF
    path.write_bytes(bytes(data))

    fresh = Session(cache_dir=tmp_path)
    report = fresh.prewarm([SPEC])
    assert report.cache_quarantined == 1
    assert (tmp_path / ResultCache.QUARANTINE / path.name).exists()
    assert report.counts["cache"] == 3 and report.counts["simulated"] == 1
    assert_matches_fault_free(map(fresh.result, CELLS), fault_free_pickles)


def test_prewarm_preserves_completed_cells_when_a_later_cell_fails(
    tmp_path, fault_free_pickles, monkeypatch
):
    # retries=0 + a crash on one cell: the sweep fails, but the three
    # cells that finished must already be on disk.
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash=1,seed=3")
    with pytest.raises(ExecutorError) as excinfo:
        Session(cache_dir=tmp_path, retries=0).prewarm([SPEC])
    (failed,) = excinfo.value.failed
    assert failed in CELLS

    monkeypatch.delenv("REPRO_FAULT_PLAN")
    resumed = Session(cache_dir=tmp_path)
    report = resumed.prewarm([SPEC])
    assert report.counts["cache"] == 3 and report.counts["simulated"] == 1
    assert report.counts["failed"] == 0
    assert report.records[failed].source == "simulated"
    assert_matches_fault_free(map(resumed.result, CELLS), fault_free_pickles)


def test_interrupted_sweep_resumes_from_cache(tmp_path, fault_free_pickles):
    # First invocation completes only part of the matrix (simulating the
    # state an interrupt leaves behind: completed cells flushed to disk).
    Session(cache_dir=tmp_path).prewarm([CELLS[2]])

    resumed = Session(cache_dir=tmp_path)
    report = resumed.prewarm([SPEC])
    assert report.counts["cache"] == 1
    assert report.counts["simulated"] == 3
    assert "hits" not in report.counts
    assert_matches_fault_free(map(resumed.result, CELLS), fault_free_pickles)
