"""Executor conformance: local pool and cluster loopback, one contract.

Every test here runs twice — once against :class:`LocalPoolExecutor`
and once against a :class:`ClusterExecutor` with an in-process loopback
worker — asserting the scheduler-observable behaviour (dedup, priority,
cancellation, fault retry, bit-identity) is identical.  This
is the acceptance teeth behind "an executor only decides *where* a cell
simulates, never *what* it computes".
"""

import json
import threading
import time

import pytest

from repro.api import RunSpec, result_digest
from repro.execution.faults import Fault, FaultPlan
from repro.service import BatchScheduler, JobFailed
from repro.cluster import WorkerClient

Q, W = 1_500, 500


def spec(mix="471+444", scheme="avgcc", **kw):
    return RunSpec(mix=mix, scheme=scheme, quota=Q, warmup=W, **kw)


@pytest.fixture(params=["local", "cluster"])
def make_scheduler(request):
    """Factory building a scheduler on the parametrized backend.

    For ``cluster`` a loopback worker thread is attached (after
    ``start=False`` construction the worker still connects immediately —
    registration is independent of the scheduler's batch thread).
    Teardown stops workers and closes every scheduler built.
    """
    built = []

    def make(**kw):
        worker_slots = kw.pop("worker_slots", 2)
        if request.param == "cluster":
            options = dict(kw.pop("executor_options", {}))
            options.setdefault("listen", "127.0.0.1:0")
            kw["executor"] = "cluster"
            kw["executor_options"] = options
        scheduler = BatchScheduler(**kw)
        clients, threads = [], []
        if request.param == "cluster":
            host, port = scheduler.executor.address
            client = WorkerClient(host, port, slots=worker_slots, name="conform")
            client.connect()
            thread = threading.Thread(target=client.run, daemon=True)
            thread.start()
            clients, threads = [client], [thread]
            deadline = time.monotonic() + 5
            while not scheduler.executor.workers():
                if time.monotonic() > deadline:
                    raise AssertionError("loopback worker never registered")
                time.sleep(0.01)
        built.append((scheduler, clients, threads))
        return scheduler

    yield make

    for scheduler, clients, threads in built:
        try:
            scheduler.close(drain=False)
        except Exception:
            pass
        for client in clients:
            client.stop()
        for thread in threads:
            thread.join(timeout=5)


def test_dedup_shares_one_execution(make_scheduler):
    scheduler = make_scheduler()
    futures = [scheduler.submit(spec()) for _ in range(3)]
    results = [f.result(timeout=300) for f in futures]
    assert results[0] is results[1] is results[2]
    stats = scheduler.stats()
    assert stats.submitted == 3
    assert stats.executed == 1
    assert stats.dedup_hits == 2


def test_priority_orders_execution(make_scheduler):
    # One slot / one job: priority orders *dispatch*, so completion
    # order only reflects it when execution is serial.
    scheduler = make_scheduler(start=False, worker_slots=1)
    order = []
    low = scheduler.submit(spec(), priority=5)
    high = scheduler.submit(spec(scheme="baseline"), priority=0)
    low.add_done_callback(lambda f: order.append("low"))
    high.add_done_callback(lambda f: order.append("high"))
    scheduler.start()
    assert scheduler.drain(timeout=300)
    assert order == ["high", "low"]


def test_cancel_before_start_skips_execution(make_scheduler):
    scheduler = make_scheduler(start=False)
    doomed = scheduler.submit(spec())
    kept = scheduler.submit(spec(scheme="baseline"))
    assert doomed.cancel()
    scheduler.start()
    assert scheduler.drain(timeout=300)
    assert doomed.cancelled()
    assert kept.result().scheme == "baseline"
    stats = scheduler.stats()
    assert stats.executed == 1 and stats.cancelled == 1


def test_close_without_drain_cancels_queue(make_scheduler):
    scheduler = make_scheduler(start=False)
    futures = [scheduler.submit(spec(scheme=s)) for s in ("avgcc", "baseline")]
    scheduler.close(drain=False)
    assert all(f.cancelled() for f in futures)
    assert scheduler.stats().executed == 0


def test_injected_crash_is_retried_transparently(make_scheduler):
    victim = spec()
    plan = FaultPlan({victim: Fault("crash", attempt=1)})
    scheduler = make_scheduler(executor_options={"fault_plan": plan})
    result = scheduler.submit(victim).result(timeout=300)
    assert result.scheme == "avgcc"
    record = scheduler.report.record(victim)
    assert record.attempts == 2, "crash on attempt 1 must charge a retry"
    assert record.status == "ok"


def test_exhausted_retries_surface_as_job_failed(make_scheduler):
    victim = spec()
    plan = FaultPlan({victim: Fault("crash", attempt=1)})
    scheduler = make_scheduler(retries=0, executor_options={"fault_plan": plan})
    future = scheduler.submit(victim)
    with pytest.raises(JobFailed):
        future.result(timeout=300)
    assert scheduler.stats().failed == 1
    # Both backends charge the crash in one spelling.
    kind = "error: InjectedCrash('injected worker crash')"
    assert scheduler.report.record(victim).errors == [kind]
    assert future.exception().kind == kind


def test_hung_cell_times_out_alone(make_scheduler):
    """A cell past its timeout is killed where it runs: it fails with
    the timeout, its sibling finishes on its first attempt, and on the
    cluster the worker stays connected with nothing redispatched."""
    victim, sibling = spec(), spec(scheme="baseline")
    plan = FaultPlan({victim: Fault("hang", seconds=30.0)})
    scheduler = make_scheduler(
        jobs=2, worker_slots=2, timeout=1.0, retries=0,
        executor_options={"fault_plan": plan},
    )
    hung = scheduler.submit(victim)
    kept = scheduler.submit(sibling)
    with pytest.raises(JobFailed):
        hung.result(timeout=300)
    assert kept.result(timeout=300).scheme == "baseline"
    assert scheduler.report.record(victim).errors == ["timeout after 1s"]
    assert scheduler.report.timeouts == 1
    assert scheduler.report.record(sibling).attempts == 1
    stats = scheduler.stats()
    if stats.executor == "cluster":
        assert stats.workers_connected == 1
        assert stats.redispatches == 0


def test_golden_digests_identical_across_executors(make_scheduler):
    """The acceptance property: the executor decides *where*, never
    *what* — results must carry the exact golden fixed-seed digests."""
    from tests.test_golden_digests import GOLDEN_PATH, MIX, QUOTA, SEED, WARMUP

    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    specs = [
        RunSpec(mix=MIX, scheme=s, quota=QUOTA, warmup=WARMUP, seed=SEED)
        for s in ("baseline", "avgcc", "dsr")
    ]
    scheduler = make_scheduler()
    futures = [scheduler.submit(s) for s in specs]
    for s, future in zip(specs, futures):
        assert result_digest(future.result(timeout=300)) == golden[s.scheme], s.scheme


def test_stats_name_the_backend(make_scheduler):
    scheduler = make_scheduler()
    stats = scheduler.stats()
    assert stats.executor == scheduler.executor.kind
    assert stats.executor in ("local", "cluster")
    if stats.executor == "cluster":
        assert stats.workers_connected == 1
    else:
        assert stats.workers_connected == 0


def test_cell_submitted_mid_flight_resolves_before_slow_sibling(make_scheduler):
    """Streaming: a free slot takes new work while a slow cell runs."""
    slow = spec()
    plan = FaultPlan({slow: Fault("hang", seconds=3.0)})
    scheduler = make_scheduler(jobs=2, executor_options={"fault_plan": plan})
    slow_future = scheduler.submit(slow)
    deadline = time.monotonic() + 60
    while scheduler.stats().inflight < 1:
        assert time.monotonic() < deadline, "slow cell never dispatched"
        time.sleep(0.01)
    fast = scheduler.submit(spec(scheme="baseline"))
    assert fast.result(timeout=300).scheme == "baseline"
    assert not slow_future.done(), "fast cell waited for its slow sibling"
    assert slow_future.result(timeout=300).scheme == "avgcc"
