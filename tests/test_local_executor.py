"""LocalPoolExecutor: retries, timeouts, pool recovery, degradation, cancel.

These tests drive the executor with a trivial picklable worker instead
of real simulations, so every failure mode — injected via
:class:`~repro.execution.faults.FaultPlan` — is exercised in well under
a second.  Real-simulation failure modes live in
``test_failure_modes.py``.
"""

import json
import sys
import threading
import time

from repro.api import RunSpec
from repro.execution.faults import Fault, FaultPlan, apply_fault
from repro.execution.report import RunReport
from repro.service import BatchScheduler, LocalPoolExecutor
from repro.service import executor as executor_module
from repro.service.executor import ExecutorConfig

CELLS = [((code,), "s") for code in (1, 2, 3, 4)]


def toy_worker(payload):
    """Return a deterministic value; honour injected faults."""
    cell = (tuple(payload["codes"]), payload["scheme"])
    fault = payload.get("fault")
    if fault is not None:
        out = apply_fault(fault, in_process=payload.get("fault_in_process", False))
        if out is not None:
            return cell, out
    if payload.get("always_crash"):
        raise RuntimeError("permanent failure")
    time.sleep(payload.get("sleep", 0.0))
    return cell, payload["codes"][0] * 10


def payload_for(cell, **extra):
    codes, scheme = cell
    return {"codes": codes, "scheme": scheme, **extra}


def is_int(result):
    return isinstance(result, int)


def make_executor(report, *, on_result=None, on_failed=None, validate=is_int, **config):
    """A bound executor whose ``results`` dict collects every delivery."""
    config.setdefault("backoff", 0.0)
    executor = LocalPoolExecutor(ExecutorConfig(**config))
    executor.results = {}

    def deliver(cell, value):
        executor.results[cell] = value
        if on_result is not None:
            on_result(cell, value)

    return executor.bind(
        worker=toy_worker,
        validate=validate,
        on_result=deliver,
        on_failed=on_failed,
        report=report,
    )


def drain(executor, payloads=payload_for):
    """Submit every cell, wait until idle; return the delivered results."""
    for cell in CELLS:
        executor.submit(cell, payloads(cell))
    executor.drain()
    executor.close()
    return executor.results


def expected_results():
    return {cell: cell[0][0] * 10 for cell in CELLS}


# --------------------------------------------------------------------- #
# In-process mode (jobs=1)
# --------------------------------------------------------------------- #


def test_serial_success_delivers_every_result_immediately():
    delivered = {}
    report = RunReport()
    results = drain(make_executor(report, jobs=1, on_result=delivered.__setitem__))
    assert results == expected_results() == delivered
    counts = report.counts
    assert counts["simulated"] == 4 and counts["failed"] == 0
    assert report.total_attempts == 4


def test_serial_crash_is_retried_and_recovers():
    plan = FaultPlan({CELLS[1]: Fault("crash")})
    report = RunReport()
    assert drain(make_executor(report, jobs=1, retries=2, fault_plan=plan)) == (
        expected_results()
    )
    rec = report.record(CELLS[1])
    assert rec.attempts == 2 and rec.status == "ok"
    assert report.retried == 1
    assert any("InjectedCrash" in err for err in rec.errors)


def test_serial_corrupt_result_is_rejected_and_retried():
    plan = FaultPlan({CELLS[0]: Fault("corrupt")})
    report = RunReport()
    assert drain(make_executor(report, jobs=1, retries=1, fault_plan=plan)) == (
        expected_results()
    )
    assert report.record(CELLS[0]).errors == ["invalid-result"]


def test_exhausted_retries_stream_a_failure_but_keep_completed_cells():
    delivered, failed = {}, {}
    report = RunReport()
    executor = make_executor(
        report,
        jobs=1,
        retries=1,
        validate=None,
        on_result=delivered.__setitem__,
        on_failed=failed.__setitem__,
    )

    def payloads(cell):
        return payload_for(cell, always_crash=(cell == CELLS[3]))

    drain(executor, payloads)
    # Every other cell completed and was delivered; the failure streamed.
    good = {cell: value for cell, value in expected_results().items() if cell != CELLS[3]}
    assert delivered == good
    assert list(failed) == [CELLS[3]]
    assert "permanent failure" in failed[CELLS[3]]
    rec = report.record(CELLS[3])
    assert rec.status == "failed" and rec.attempts == 2


def test_cancel_stops_at_the_next_cell_boundary():
    delivered = {}
    report = RunReport()

    def deliver_then_cancel(cell, value):
        delivered[cell] = value
        if len(delivered) == 2:
            executor.cancel()

    executor = make_executor(report, jobs=1, on_result=deliver_then_cancel)
    drain(executor)
    assert executor.cancelled
    assert len(delivered) == 2  # completed cells delivered, rest untouched
    assert report.counts["simulated"] == 2 and report.counts["pending"] == 2


def test_cancel_mid_batch_reports_resumable(tmp_path, capsys):
    """Through the scheduler: the interrupted batch's report says so,
    and its resume summary is printed once."""
    specs = [
        RunSpec(mix=(471,), scheme=scheme, quota=500, warmup=100)
        for scheme in ("baseline", "avgcc", "ascc", "dsr")
    ]
    scheduler = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    inner = scheduler.executor.ledger.on_result
    delivered = []

    def deliver_then_cancel(spec, result):
        inner(spec, result)
        delivered.append(spec)
        if len(delivered) == 2:
            scheduler.executor.cancel()

    scheduler.executor.ledger.on_result = deliver_then_cancel
    futures = [scheduler.submit(spec) for spec in specs]
    scheduler.start()
    assert scheduler.drain(timeout=300)
    scheduler.close(drain=True)
    assert sum(f.cancelled() for f in futures) == 2
    data = json.loads((tmp_path / "run_report.json").read_text())
    assert data["interrupted"] is True
    assert data["counts"]["simulated"] == 2 and data["counts"]["pending"] == 2
    assert capsys.readouterr().err.count("re-run the same command") == 1


# --------------------------------------------------------------------- #
# Pool mode
# --------------------------------------------------------------------- #


def test_pool_success_matches_serial():
    report = RunReport()
    assert drain(make_executor(report, jobs=2)) == expected_results()
    assert report.counts["simulated"] == 4


def test_pool_crash_is_retried_and_recovers():
    plan = FaultPlan({CELLS[2]: Fault("crash")})
    report = RunReport()
    assert drain(make_executor(report, jobs=2, retries=2, fault_plan=plan)) == (
        expected_results()
    )
    assert report.record(CELLS[2]).status == "ok"
    assert report.retried >= 1


def test_pool_death_respawns_and_resubmits_unfinished():
    plan = FaultPlan({CELLS[0]: Fault("die")})
    report = RunReport()
    assert drain(make_executor(report, jobs=2, retries=2, fault_plan=plan)) == (
        expected_results()
    )
    assert report.pool_deaths >= 1
    assert report.counts["failed"] == 0


def test_hung_cell_trips_timeout_and_recovers():
    plan = FaultPlan({CELLS[1]: Fault("hang", seconds=10.0)})
    report = RunReport()
    executor = make_executor(report, jobs=2, retries=2, timeout=0.5, fault_plan=plan)
    assert drain(executor) == expected_results()
    assert report.timeouts == 1
    rec = report.record(CELLS[1])
    assert rec.status == "ok" and any("timeout" in err for err in rec.errors)


def test_hung_cell_is_charged_alone_and_its_sibling_refunded():
    """The timeout charges only the attempt in flight past it.

    The sibling starts half a timeout after the victim and is still
    running when the victim times out, so the pool recycle takes it
    down too; it is refunded (one attempt, no error) instead of being
    charged a pool death.  Its retry sleeps under the timeout.
    """
    timeout = 2.0
    victim, sibling = CELLS[0], CELLS[1]
    plan = FaultPlan({victim: Fault("hang", seconds=10.0)})
    report = RunReport()
    executor = make_executor(report, jobs=2, retries=2, timeout=timeout, fault_plan=plan)
    executor.submit(victim, payload_for(victim))
    time.sleep(timeout / 2)
    executor.submit(sibling, payload_for(sibling, sleep=0.7 * timeout))
    executor.drain()
    executor.close()
    assert executor.results == {victim: 10, sibling: 20}
    assert report.record(victim).errors == ["timeout after 2s"]
    rec = report.record(sibling)
    assert rec.attempts == 1 and rec.errors == [] and rec.status == "ok"
    assert report.pool_deaths == 0
    assert report.timeouts == 1


def test_streamed_completions_are_never_lost():
    """Many short cells through two slots, under a tiny switch interval:
    a completion signal lost between poll and wait would hang drain."""
    report = RunReport()
    executor = make_executor(report, jobs=2)
    cells = [((code,), "s") for code in range(1, 61)]

    def stream():
        for cell in cells:
            executor.submit(cell, payload_for(cell))
            executor.poll()
        executor.drain()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        driver = threading.Thread(target=stream, daemon=True)
        driver.start()
        driver.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
        executor.close()
    assert not driver.is_alive(), "drain never saw the last completion"
    assert executor.results == {cell: cell[0][0] * 10 for cell in cells}
    assert report.counts["simulated"] == len(cells)


def test_repeated_pool_deaths_degrade_to_serial(monkeypatch):
    monkeypatch.setattr(executor_module, "MAX_POOL_DEATHS", 0)
    plan = FaultPlan({CELLS[0]: Fault("die")})
    report = RunReport()
    assert drain(make_executor(report, jobs=2, retries=2, fault_plan=plan)) == (
        expected_results()
    )
    assert report.degraded_serial is True
    assert report.counts["failed"] == 0


def test_a_degraded_busy_period_still_enforces_the_timeout():
    """Past MAX_POOL_DEATHS a timed busy period runs one cell at a time
    on a one-worker pool, not in-process, so a hung cell still costs
    only the timeout."""
    hung = ((5,), "s")
    plan = FaultPlan(
        {**{cell: Fault("die") for cell in CELLS}, hung: Fault("hang", seconds=5.0)}
    )
    report = RunReport()
    executor = make_executor(report, jobs=1, retries=2, timeout=1.0, fault_plan=plan)
    started = time.monotonic()
    for cell in CELLS + [hung]:
        executor.submit(cell, payload_for(cell))
    executor.drain()
    elapsed = time.monotonic() - started
    executor.close()
    assert report.pool_deaths == len(CELLS) > executor_module.MAX_POOL_DEATHS
    assert report.degraded_serial is True
    assert report.timeouts == 1
    assert report.record(hung).errors == ["timeout after 1s"]
    assert executor.results == {**expected_results(), hung: 50}
    assert elapsed < 4.0, elapsed  # the hang sleeps 5 s


# --------------------------------------------------------------------- #
# RunReport
# --------------------------------------------------------------------- #


def test_report_roundtrip_and_summary(tmp_path):
    report = RunReport(config={"jobs": 2})
    report.mark_hit(CELLS[0])
    report.mark_ok(CELLS[1], 0.25)
    report.record(CELLS[2])
    report.finalize()
    path = report.write(tmp_path / "r.json")
    data = json.loads(path.read_text())
    assert data["version"] == RunReport.VERSION
    assert data["config"] == {"jobs": 2}
    assert data["counts"] == {
        "total": 3,
        "cache": 1,
        "simulated": 1,
        "failed": 0,
        "pending": 1,
    }
    by_status = {tuple(c["codes"]): c["status"] for c in data["cells"]}
    assert by_status == {(1,): "ok", (2,): "ok", (3,): "pending"}
    assert "3 cells" in report.summary()


def test_report_rows_name_way_and_kernel_cells():
    """Figure 1 cells share (codes, scheme) and differ only in their
    ways, kernel cells have no codes at all: each row names its cell."""
    cells = [
        RunSpec(mix=(code,), scheme="baseline", l2_ways=ways)
        for code in (471, 473)
        for ways in (1, 2, 4, 8, 16, "full")
    ] + [RunSpec(kernel=("lu", 4), scheme=s) for s in ("baseline", "ascc")]
    report = RunReport()
    for cell in cells:
        report.mark_ok(cell, 0.1)
    rows = report.to_dict()["cells"]
    assert len(rows) == len(cells)
    assert len({row["cell"] for row in rows}) == len(rows)
    assert rows[0]["cell"] == "471@ways=1/baseline"


def test_closed_loop_reuses_one_process_pool(monkeypatch):
    """One-at-a-time cells on a jobs=2 scheduler share one pool."""
    spawned = []

    import concurrent.futures

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            spawned.append(1)
            super().__init__(*args, **kwargs)

    # The executor imports the pool class where it spawns one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    with BatchScheduler(jobs=2) as scheduler:
        for scheme in ("baseline", "avgcc", "ascc", "dsr", "cc"):
            spec = RunSpec(mix=(471,), scheme=scheme, quota=500, warmup=100)
            assert scheduler.submit(spec).result(timeout=300).scheme == scheme
    assert len(spawned) == 1
