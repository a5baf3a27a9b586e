"""Cluster tier: handshake, lease redispatch, bit-identity, resume.

Workers here are :class:`WorkerClient` supervisors run on test
threads; their lanes are processes forked from the test process, each
running its leases in-process (where hard-death faults are
downgraded).  The TCP sockets, frames and coordinator logic are exactly
the production path.  ``repro worker`` processes are covered here too,
and by the CLI smoke job in CI.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro

from repro.api import RunSpec, result_digest
from repro.service import BatchScheduler, run_batch, wire
from repro.cluster import WorkerClient, WorkerRejected

Q, W = 1_500, 500


def spec(mix="471+444", scheme="avgcc", **kw):
    return RunSpec(mix=mix, scheme=scheme, quota=Q, warmup=W, **kw)


def six_specs():
    return [
        spec(scheme=s)
        for s in ("baseline", "avgcc", "ascc", "dsr", "ecc", "cc")
    ]


def cluster_scheduler(**kw):
    kw.setdefault("executor", "cluster")
    options = kw.setdefault("executor_options", {})
    options.setdefault("listen", "127.0.0.1:0")
    return BatchScheduler(**kw)


def start_workers(scheduler, count=1, slots=2, prefix="w"):
    """Connect ``count`` loopback workers of ``slots`` lanes each;
    returns (clients, threads) once every lane has registered."""
    host, port = scheduler.executor.address
    clients, threads = [], []
    for index in range(count):
        client = WorkerClient(host, port, slots=slots, name=f"{prefix}{index}")
        client.connect()
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        clients.append(client)
        threads.append(thread)
    deadline = time.monotonic() + 5
    while len(scheduler.executor.workers()) < count * slots:
        if time.monotonic() > deadline:
            raise AssertionError("workers never registered")
        time.sleep(0.01)
    return clients, threads


def shut_down(scheduler, clients, threads):
    scheduler.close(drain=True)
    for client in clients:
        client.stop()
    for thread in threads:
        thread.join(timeout=5)


# --------------------------------------------------------------------- #
# Registration and capability handshake
# --------------------------------------------------------------------- #


def test_handshake_registers_capabilities():
    scheduler = cluster_scheduler()
    clients, threads = start_workers(scheduler, count=1, slots=3)
    try:
        lanes = scheduler.executor.workers()
        assert sorted(lane["name"] for lane in lanes) == ["w0/0", "w0/1", "w0/2"]
        assert all(lane["slots"] == 1 for lane in lanes)
        assert sorted(lane["pid"] for lane in lanes) == sorted(clients[0].lanes.values())
        for lane in lanes:
            assert lane["backend"]  # e.g. "slot"
            assert isinstance(lane["trace_cache"], bool)
    finally:
        shut_down(scheduler, clients, threads)


def test_version_mismatch_gets_structured_reject_not_traceback():
    scheduler = cluster_scheduler()
    host, port = scheduler.executor.address
    try:
        # v1 is a 3.x worker: its specs carry a field 4.x specs reject,
        # so the mixed cluster is refused once, at the handshake.
        for version in (1, wire.PROTOCOL_VERSION + 1):
            sock = socket.create_connection((host, port))
            try:
                wire.write_frame(
                    sock.makefile("wb"),
                    {"v": version, "type": "hello", "worker": f"v{version}"},
                )
                frame = wire.read_frame(sock.makefile("rb"))
            finally:
                sock.close()
            assert frame["type"] == "reject", version
            assert frame["code"] == "protocol_mismatch"
            assert frame["ok"] is False
    finally:
        scheduler.close(drain=False)


def test_worker_client_surfaces_rejection_with_code():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    host, port = server.getsockname()

    def reject_all():
        conn, _ = server.accept()
        rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
        wire.read_frame(rfile)  # the hello
        wire.write_frame(
            wfile,
            wire.make_frame("reject", code="protocol_mismatch", error="speak v1"),
        )
        conn.close()

    threading.Thread(target=reject_all, daemon=True).start()
    try:
        client = WorkerClient(host, port)
        with pytest.raises(WorkerRejected, match="protocol_mismatch"):
            client.connect()
    finally:
        server.close()


def test_run_worker_exit_code_2_on_rejection():
    import io

    from repro.cluster import run_worker

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    host, port = server.getsockname()

    def reject_all():
        conn, _ = server.accept()
        rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
        wire.read_frame(rfile)
        wire.write_frame(wfile, wire.make_frame("reject", code="scheduler_closed", error="closed"))
        conn.close()

    threading.Thread(target=reject_all, daemon=True).start()
    stream = io.StringIO()
    try:
        assert run_worker(f"{host}:{port}", stream=stream) == 2
        assert "rejected" in stream.getvalue()
    finally:
        server.close()


# --------------------------------------------------------------------- #
# Execution: bit-identity, dedup, attribution
# --------------------------------------------------------------------- #


def test_cluster_results_bit_identical_to_local():
    specs = [spec(), spec(scheme="baseline")]
    local, _stats, _report = run_batch(specs, jobs=1)

    scheduler = cluster_scheduler()
    clients, threads = start_workers(scheduler, count=1, slots=2)
    futures = [scheduler.submit(s) for s in specs]
    remote = [f.result(timeout=300) for f in futures]
    shut_down(scheduler, clients, threads)

    for s, mine, theirs in zip(specs, local, remote):
        assert result_digest(mine) == result_digest(theirs), s.name


def test_cluster_dedup_and_stats():
    scheduler = cluster_scheduler()
    clients, threads = start_workers(scheduler, count=1, slots=2)
    futures = [scheduler.submit(s) for s in [spec(), spec(), spec()]]
    results = [f.result(timeout=300) for f in futures]
    stats = scheduler.stats()
    shut_down(scheduler, clients, threads)

    assert results[0] is results[1] is results[2]
    assert stats.submitted == 3
    assert stats.executed == 1
    assert stats.dedup_hits == 2
    assert stats.executor == "cluster"
    assert stats.workers_connected == 2  # one per lane


def test_report_attributes_cells_to_workers():
    scheduler = cluster_scheduler()
    clients, threads = start_workers(scheduler, count=2, slots=1)
    specs = six_specs()[:4]
    futures = [scheduler.submit(s) for s in specs]
    for f in futures:
        f.result(timeout=300)
    report = scheduler.report
    shut_down(scheduler, clients, threads)

    names = {report.record(s).worker for s in specs}
    assert names <= {"w0/0", "w1/0"}
    assert names, "no cell carried a worker attribution"
    # The report's dict form carries it too (run manifests, CI greps).
    assert all(report.record(s).to_dict()["worker"] for s in specs)


def test_run_report_config_names_the_executor():
    scheduler = cluster_scheduler()
    assert scheduler.report.config["executor"] == "cluster"
    scheduler.close(drain=False)


# --------------------------------------------------------------------- #
# Redispatch: a killed worker's leases land elsewhere, bit-identically
# --------------------------------------------------------------------- #


def test_killed_worker_leases_redispatch_and_digests_match():
    """Kill a worker provably mid-lease; the batch still completes
    bit-identically.

    Determinism: the first-submitted cell carries an injected ``hang``
    fault on attempt 1, so the (only) worker is guaranteed to be
    holding that lease when the kill lands — no timing race against
    sub-50ms simulations.  The retry runs attempt 2, which is clean.
    """
    from repro.execution.faults import Fault, FaultPlan

    specs = six_specs()
    local, _stats, _report = run_batch(specs, jobs=2)
    expected = Counter(result_digest(r) for r in local)

    # 8s: far past the kill, which lands within milliseconds of the
    # lease starting and ends the sleeping lane with the others.
    plan = FaultPlan({specs[0]: Fault("hang", attempt=1, seconds=8.0)})
    scheduler = cluster_scheduler(
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan}
    )
    clients, threads = start_workers(scheduler, count=1, slots=2)
    victim = clients[0]

    futures = [scheduler.submit(s) for s in specs]
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:  # the hung lease is in flight
        if scheduler.stats().leases_active:
            break
        time.sleep(0.005)
    else:
        raise AssertionError("victim never started a lease")
    victim.stop()  # kills its lanes: abrupt socket death, lease(s) in flight

    relief, relief_threads = start_workers(scheduler, count=1, slots=2, prefix="relief")
    remote = [f.result(timeout=300) for f in futures]
    stats = scheduler.stats()
    report = scheduler.report
    shut_down(scheduler, relief, relief_threads)
    threads[0].join(timeout=5)

    assert stats.redispatches >= 1, "the kill never cost a lease"
    assert stats.failed == 0
    assert Counter(result_digest(r) for r in remote) == expected
    # The death is charged to the lease it interrupted, as a retry.
    assert "worker-lost" in report.record(specs[0]).errors


# --------------------------------------------------------------------- #
# Lanes: one process per slot, each answering for its own lease
# --------------------------------------------------------------------- #


def worker_process(address, *args):
    """A ``repro worker`` process dialling ``address``."""
    host, port = address
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--connect", f"{host}:{port}", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def stop_process(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def wait_for(predicate, what, timeout=30):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def lane_pids(scheduler) -> dict:
    return {lane["name"]: lane["pid"] for lane in scheduler.executor.workers()}


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to find children"
)
def test_worker_lanes_are_its_only_processes_and_run_no_pool():
    """Each slot is one forked lane that registers itself and runs its
    leases in-process: no relay process, no pool grandchildren."""
    from tests.test_service_durability import _children, _running

    scheduler = cluster_scheduler()
    worker = worker_process(scheduler.executor.address, "--slots", "2", "--label", "w")
    try:
        wait_for(lambda: len(scheduler.executor.workers()) == 2, "two lanes")
        futures = [scheduler.submit(s) for s in six_specs()[:4]]
        for f in futures:
            f.result(timeout=300)
        lanes = [pid for pid in _children(worker.pid) if _running(pid)]
        assert len(lanes) == 2
        registered = lane_pids(scheduler)
        assert sorted(registered) == ["w/0", "w/1"]
        assert sorted(registered.values()) == sorted(lanes)
        for lane in lanes:
            assert not [pid for pid in _children(lane) if _running(pid)]
    finally:
        scheduler.close(drain=False)
        stop_process(worker)


def test_slots_1_worker_times_out_a_hung_lease_then_serves_the_next():
    from repro.execution.faults import Fault, FaultPlan
    from repro.service import JobFailed

    hung, next_cell = spec(), spec(scheme="baseline")
    plan = FaultPlan({hung: Fault("hang", seconds=30.0)})
    scheduler = cluster_scheduler(
        timeout=1.0, retries=0,
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan},
    )
    worker = worker_process(scheduler.executor.address, "--slots", "1")
    try:
        future = scheduler.submit(hung)
        with pytest.raises(JobFailed):
            future.result(timeout=20)
        assert scheduler.report.record(hung).errors == ["timeout after 1s"]
        assert scheduler.report.timeouts == 1
        assert scheduler.submit(next_cell).result(timeout=60).scheme == "baseline"
        scheduler.close(drain=True)
        assert worker.wait(timeout=30) == 0
    finally:
        scheduler.close(drain=False)
        stop_process(worker)


def test_timed_out_lane_is_replaced_and_the_next_leases_use_it():
    """The lane that answered ``timeout`` exits and a fresh one takes
    over its connection: the worker stays registered, nothing is
    redispatched, and the new lane serves."""
    from repro.execution.faults import Fault, FaultPlan
    from repro.service import JobFailed

    hung, held, free = spec(), spec(scheme="baseline"), spec(scheme="dsr")
    plan = FaultPlan({hung: Fault("hang", seconds=30.0), held: Fault("hang", seconds=0.5)})
    scheduler = cluster_scheduler(
        timeout=1.0, retries=0,
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan},
    )
    clients, threads = start_workers(scheduler, count=1, slots=2)
    try:
        before = clients[0].lanes
        with pytest.raises(JobFailed):
            scheduler.submit(hung).result(timeout=20)
        wait_for(
            lambda: len(clients[0].lanes) == 2 and clients[0].lanes != before,
            "the replacement lane",
        )
        assert scheduler.stats().workers_connected == 2
        # ``held`` keeps one lane busy for half a second, so ``free``
        # takes the other: both lanes, the new one included, serve.
        futures = [scheduler.submit(held), scheduler.submit(free)]
        for f in futures:
            f.result(timeout=60)
        served = {scheduler.report.record(s).worker for s in (held, free)}
        assert served == {"w0/0", "w0/1"}
        assert scheduler.report.record(hung).errors == ["timeout after 1s"]
        assert scheduler.stats().redispatches == 0
    finally:
        shut_down(scheduler, clients, threads)


def test_killed_lane_is_charged_redispatched_and_respawned():
    """``kill -9`` of one lane mid-lease: ``worker-lost``, one
    redispatch, bit-identical digests, and a fresh lane in its place."""
    from repro.execution.faults import Fault, FaultPlan

    specs = six_specs()
    local, _stats, _report = run_batch(specs, jobs=1)
    plan = FaultPlan({specs[0]: Fault("hang", attempt=1, seconds=30.0)})
    scheduler = cluster_scheduler(
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan}
    )
    clients, threads = start_workers(scheduler, count=1, slots=2)
    try:
        first = scheduler.submit(specs[0])
        wait_for(lambda: scheduler.stats().leases_active == 1, "the hung lease")
        (victim,) = [lane for lane in scheduler.executor.workers() if lane["leases"]]
        os.kill(victim["pid"], signal.SIGKILL)
        futures = [first] + [scheduler.submit(s) for s in specs[1:]]
        remote = [f.result(timeout=300) for f in futures]
        wait_for(
            lambda: lane_pids(scheduler).get(victim["name"]) not in (None, victim["pid"]),
            "the respawned lane",
        )
        assert victim["pid"] not in clients[0].lanes.values()
        assert len(clients[0].lanes) == 2
        stats = scheduler.stats()
        record = scheduler.report.record(specs[0])
    finally:
        shut_down(scheduler, clients, threads)
    assert record.errors == ["worker-lost"] and record.attempts == 2
    assert stats.redispatches == 1
    assert stats.failed == 0
    assert [result_digest(r) for r in remote] == [result_digest(r) for r in local]


def test_frozen_lane_is_expelled_as_hung_and_its_lease_redispatched(monkeypatch):
    """A lane stopped mid-lease sends no frame at all, not even the
    timeout its own watchdog would: with no option set, the coordinator
    expels it once its heartbeats are ``STALE_AFTER`` old, charging the
    lease ``worker-hung`` and redispatching it to the other lane."""
    from repro.execution.faults import Fault, FaultPlan

    monkeypatch.setattr(wire, "STALE_AFTER", 1.0)
    victim_spec = spec()
    plan = FaultPlan({victim_spec: Fault("hang", attempt=1, seconds=30.0)})
    scheduler = cluster_scheduler(
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan}
    )
    clients, threads = start_workers(scheduler, count=1, slots=2)
    frozen = None
    try:
        future = scheduler.submit(victim_spec)
        wait_for(lambda: scheduler.stats().leases_active == 1, "the hung lease")
        (victim,) = [lane for lane in scheduler.executor.workers() if lane["leases"]]
        frozen = victim["pid"]
        os.kill(frozen, signal.SIGSTOP)
        result = future.result(timeout=60)
        record = scheduler.report.record(victim_spec)
        stats = scheduler.stats()
    finally:
        if frozen is not None:
            os.kill(frozen, signal.SIGCONT)
            os.kill(frozen, signal.SIGKILL)
            # The worker respawns the killed lane; let it register before
            # the coordinator closes, so no lane dials a closed port.
            wait_for(lambda: len(lane_pids(scheduler)) == 2, "the respawned lane")
        shut_down(scheduler, clients, threads)
    assert result.scheme == "avgcc"
    assert record.errors == ["worker-hung"] and record.attempts == 2
    assert stats.redispatches == 1
    assert stats.failed == 0


def fake_coordinator(lanes: int, farewell: str):
    """A listener that welcomes ``lanes`` lanes, then either sends each a
    ``shutdown`` frame or hangs up on it (``farewell`` = ``"vanish"``).

    Returns ``(address, pids, finish)``: ``pids`` fills with each
    lane's ``hello`` pid; ``finish()`` says farewell.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(lanes)
    conns, pids = [], []

    def welcome_all():
        for _ in range(lanes):
            conn, _ = server.accept()
            hello = wire.read_frame(conn.makefile("rb"))
            wire.write_frame(conn.makefile("wb"), wire.make_frame("welcome", coordinator="fake"))
            conns.append(conn)
            pids.append(hello["pid"])

    thread = threading.Thread(target=welcome_all, daemon=True)
    thread.start()

    def finish():
        thread.join(timeout=30)
        for conn in conns:
            if farewell == "shutdown":
                wire.write_frame(conn.makefile("wb"), wire.make_frame("shutdown"))
            else:
                conn.shutdown(socket.SHUT_RDWR)
            conn.close()
        server.close()

    return server.getsockname(), pids, finish


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to find children"
)
@pytest.mark.parametrize("farewell", ["shutdown", "vanish"])
def test_no_lane_outlives_repro_worker(farewell):
    from tests.test_service_durability import _running

    address, pids, finish = fake_coordinator(2, farewell)
    worker = worker_process(address, "--slots", "2")
    try:
        wait_for(lambda: len(pids) == 2, "two lanes")
        finish()
        assert worker.wait(timeout=30) == 0
    finally:
        stop_process(worker)
    assert not [pid for pid in pids if _running(pid)]


def test_a_lane_that_cannot_reregister_ends_the_worker_with_code_2():
    """Respawns are bounded: the replacement of a killed lane is refused
    at its handshake, and ``repro worker`` exits 2 instead of retrying."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(2)
    worker = worker_process(server.getsockname(), "--slots", "1")
    try:
        conn, _ = server.accept()
        rfile = conn.makefile("rb")
        hello = wire.read_frame(rfile)
        wire.write_frame(conn.makefile("wb"), wire.make_frame("welcome", coordinator="fake"))
        # A lane heartbeats only once it serves, after it has reported
        # its handshake to the supervisor; killed before that report, it
        # fails the worker's start instead of being respawned.
        assert wire.read_frame(rfile)["type"] == "heartbeat"
        os.kill(hello["pid"], signal.SIGKILL)
        again, _ = server.accept()
        assert wire.read_frame(again.makefile("rb"))["pid"] != hello["pid"]
        wire.write_frame(again.makefile("wb"), wire.make_frame("reject", code="scheduler_closed", error="closed"))
        assert worker.wait(timeout=30) == 2
    finally:
        stop_process(worker)
        server.close()


# --------------------------------------------------------------------- #
# Journal resume under the cluster executor
# --------------------------------------------------------------------- #


def test_journal_resume_under_cluster_executor(tmp_path):
    specs = six_specs()[:4]
    interrupted = BatchScheduler(jobs=1, cache_dir=tmp_path / "a", start=False)
    for s in specs:
        interrupted.submit(s)
    interrupted.close(drain=False)  # the "crash"

    resumed = BatchScheduler.recover(
        tmp_path / "a",
        executor="cluster",
        executor_options={"listen": "127.0.0.1:0"},
        start=False,
    )
    clients, threads = start_workers(resumed, count=1, slots=2)
    assert resumed.resume_summary["resumed"] == 4
    resumed.start()
    digests = {
        s.name: result_digest(f.result(timeout=300))
        for s, f in resumed.resume_summary["futures"]
    }
    shut_down(resumed, clients, threads)

    clean, _stats, _report = run_batch(specs, jobs=1, cache_dir=tmp_path / "b")
    assert digests == {s.name: result_digest(o) for s, o in zip(specs, clean)}


def _assert_scheduler_does_no_trace_work(monkeypatch, run) -> None:
    """Whatever executes the cells gets its own traces, so the scheduler
    process must not materialize (or persist) any: its trace memo stays
    empty.  ``run(specs)`` executes ``specs`` off this process and
    returns their digests."""
    from repro.workloads import trace_cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(trace_cache, "_GLOBAL", trace_cache.TraceCache())
    specs = six_specs()[:2]
    digests = run(specs)
    assert trace_cache.get_trace_cache()._memo == {}
    assert trace_cache.get_trace_cache().stats["materialized"] == 0

    local, _stats, _report = run_batch(specs, jobs=1)
    assert digests == [result_digest(o) for o in local]


def test_cluster_batch_skips_the_coordinator_trace_prepass(monkeypatch):
    def run(specs):
        scheduler = cluster_scheduler()
        worker = worker_process(scheduler.executor.address)
        try:
            futures = [scheduler.submit(s) for s in specs]
            digests = [result_digest(f.result(timeout=300)) for f in futures]
            scheduler.close(drain=True)
            worker.wait(timeout=30)
        finally:
            scheduler.close(drain=False)
            stop_process(worker)
        return digests

    _assert_scheduler_does_no_trace_work(monkeypatch, run)


def test_local_pool_batch_skips_the_scheduler_trace_prepass(monkeypatch):
    def run(specs):
        outcomes, _stats, _report = run_batch(specs, jobs=2)
        return [result_digest(o) for o in outcomes]

    _assert_scheduler_does_no_trace_work(monkeypatch, run)


# --------------------------------------------------------------------- #
# Shutdown
# --------------------------------------------------------------------- #


def test_close_tells_workers_to_shut_down():
    scheduler = cluster_scheduler()
    clients, threads = start_workers(scheduler, count=2, slots=1)
    scheduler.close(drain=True)
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive(), "worker did not exit on shutdown frame"
