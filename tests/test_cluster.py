"""Cluster tier: handshake, lease redispatch, bit-identity, resume.

Workers here are in-process :class:`WorkerClient` loopback threads
whose slots run on their own process pool (a 1-slot worker runs in
process, where hard-death faults are downgraded); the TCP sockets,
frames and coordinator logic are exactly the production path.
Process-level workers are covered by the CLI smoke job in CI.
"""

import socket
import threading
import time
from collections import Counter

import pytest

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
    """Connect ``count`` loopback workers; returns (clients, threads)."""
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
    while len(scheduler.executor.workers()) < count:
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
        (worker,) = scheduler.executor.workers()
        assert worker["name"] == "w0"
        assert worker["slots"] == 3
        assert worker["backend"]  # e.g. "slot"
        assert isinstance(worker["trace_cache"], bool)
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
        wire.write_frame(wfile, wire.make_frame("reject", code="shed", error="full"))
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
    assert stats.workers_connected == 1


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
    assert names <= {"w0", "w1"}
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
    # lease starting; the killed worker's pool takes the sleeper along.
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
    victim.kill()  # abrupt socket death, lease(s) in flight

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


def test_cluster_batch_skips_the_coordinator_trace_prepass(monkeypatch):
    """Remote workers regenerate their traces, so the coordinator must
    not materialize (or persist) any: its trace memo stays empty."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.workloads import trace_cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setattr(trace_cache, "_GLOBAL", trace_cache.TraceCache())
    specs = six_specs()[:2]
    scheduler = cluster_scheduler()
    host, port = scheduler.executor.address
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--connect", f"{host}:{port}"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        futures = [scheduler.submit(s) for s in specs]
        digests = [result_digest(f.result(timeout=300)) for f in futures]
        scheduler.close(drain=True)
        worker.wait(timeout=30)
    finally:
        scheduler.close(drain=False)
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    assert trace_cache.get_trace_cache()._memo == {}
    assert trace_cache.get_trace_cache().stats["materialized"] == 0

    local, _stats, _report = run_batch(specs, jobs=1)
    assert digests == [result_digest(o) for o in local]


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
