"""Batch service: dedup, priority, cancellation, shutdown, bit-identity."""

import io
import json
import threading
import urllib.request

import pytest

from repro.api import RunSpec, result_digest
from repro.service import (
    AsyncClient,
    BatchHTTPServer,
    BatchScheduler,
    SchedulerClosed,
    run_batch,
    serve_jsonl,
)

Q, W = 1_500, 500


def spec(mix="471+444", scheme="avgcc", **kw):
    return RunSpec(mix=mix, scheme=scheme, quota=Q, warmup=W, **kw)


def six_spec_batch():
    """Six submissions, two of them duplicates -> four unique specs."""
    return [
        spec(),
        spec(scheme="baseline"),
        spec(),                       # duplicate of 0
        spec(mix="444+445"),
        spec(scheme="baseline"),      # duplicate of 1
        spec(mix="444+445", scheme="dsr"),
    ]


# --------------------------------------------------------------------- #
# Acceptance: dedup counter and bit-identity
# --------------------------------------------------------------------- #


def test_six_spec_batch_with_two_duplicates_executes_four():
    outcomes, stats, report = run_batch(six_spec_batch(), jobs=1)
    assert stats.submitted == 6
    assert stats.executed == 4
    assert stats.dedup_hits == 2
    assert stats.failed == 0 and stats.cancelled == 0
    assert report.counts["simulated"] == 4
    # Duplicates share one execution and therefore one result object.
    assert outcomes[0] is outcomes[2]
    assert outcomes[1] is outcomes[4]


def test_batch_results_bit_identical_to_serial_run():
    from repro.execution.simulate import simulate_spec

    specs = six_spec_batch()
    outcomes, _stats, _report = run_batch(specs, jobs=1)
    for s, result in zip(specs, outcomes):
        assert result_digest(result) == result_digest(simulate_spec(s)), s.name


def test_batch_matches_golden_digests():
    """Service results must carry the exact golden fixed-seed digests."""
    from tests.test_golden_digests import GOLDEN_PATH, MIX, QUOTA, SEED, WARMUP

    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    specs = [
        RunSpec(mix=MIX, scheme=s, quota=QUOTA, warmup=WARMUP, seed=SEED)
        for s in ("baseline", "avgcc", "dsr")
    ]
    outcomes, _stats, _report = run_batch(specs, jobs=1)
    for s, result in zip(specs, outcomes):
        assert result_digest(result) == golden[s.scheme], s.scheme


# --------------------------------------------------------------------- #
# Scheduling semantics
# --------------------------------------------------------------------- #


def test_memory_dedup_after_completion_counts_as_cache_hit():
    with BatchScheduler(jobs=1) as sched:
        first = sched.submit(spec())
        first.result(timeout=120)
        again = sched.submit(spec())
        assert again.result(timeout=120) is first.result()
    assert sched.stats().cache_hits == 1
    assert sched.stats().executed == 1


def test_disk_cache_hit_across_scheduler_instances(tmp_path):
    cells = tmp_path / "cells"
    run_batch([spec()], jobs=1, cache_dir=cells)
    _outcomes, stats, report = run_batch([spec()], jobs=1, cache_dir=cells)
    assert stats.executed == 0
    assert stats.cache_hits == 1
    assert report.counts["cache"] == 1


def test_priority_orders_execution():
    sched = BatchScheduler(jobs=1, start=False)
    order = []
    low = sched.submit(spec(), priority=5)
    high = sched.submit(spec(scheme="baseline"), priority=0)
    low.add_done_callback(lambda f: order.append("low"))
    high.add_done_callback(lambda f: order.append("high"))
    sched.start()
    assert sched.drain(timeout=120)
    sched.close()
    assert order == ["high", "low"]


def test_duplicate_submission_promotes_queued_priority():
    sched = BatchScheduler(jobs=1, start=False)
    order = []
    a = sched.submit(spec(), priority=5)
    b = sched.submit(spec(scheme="baseline"), priority=3)
    dup = sched.submit(spec(), priority=0)  # promotes the first entry
    for fut, tag in ((a, "a"), (b, "b")):
        fut.add_done_callback(lambda f, tag=tag: order.append(tag))
    sched.start()
    assert sched.drain(timeout=120)
    sched.close()
    assert sched.stats().dedup_hits == 1
    assert dup.result() is a.result()
    assert order == ["a", "b"]


def test_cancel_before_start_skips_execution():
    sched = BatchScheduler(jobs=1, start=False)
    doomed = sched.submit(spec())
    kept = sched.submit(spec(scheme="baseline"))
    assert doomed.cancel()
    sched.start()
    assert sched.drain(timeout=120)
    sched.close()
    assert doomed.cancelled()
    assert kept.result().scheme == "baseline"
    stats = sched.stats()
    assert stats.executed == 1 and stats.cancelled == 1


def test_close_without_drain_cancels_queue_and_writes_report(tmp_path):
    report_path = tmp_path / "run_report.json"
    sched = BatchScheduler(jobs=1, start=False, report_path=report_path)
    futures = [sched.submit(s) for s in six_spec_batch()]
    sched.close(drain=False)
    assert all(f.cancelled() for f in futures)
    stats = sched.stats()
    assert stats.executed == 0 and stats.cancelled == 4
    data = json.loads(report_path.read_text())
    assert data["counts"]["simulated"] == 0


def test_submit_after_close_is_rejected():
    sched = BatchScheduler(jobs=1)
    sched.close()
    with pytest.raises(SchedulerClosed):
        sched.submit(spec())


def test_invalid_spec_rejected_at_submit():
    from repro.api import SpecError

    with BatchScheduler(jobs=1) as sched:
        with pytest.raises(SpecError):
            sched.submit(spec().replace(quota=0))
    assert sched.stats().submitted == 0


def test_metrics_snapshot_renders_prometheus(tmp_path):
    metrics_path = tmp_path / "service.prom"
    _outcomes, stats, _report = run_batch(
        six_spec_batch(), jobs=1, metrics_path=metrics_path
    )
    text = metrics_path.read_text()
    assert "repro_service_dedup_hits_total 2" in text
    assert "repro_service_executed_total 4" in text
    assert 'repro_service_latency_seconds{scheme="avgcc",quantile="0.5"}' in text
    assert stats.latency["avgcc"]["count"] == 2


# --------------------------------------------------------------------- #
# asyncio adapter
# --------------------------------------------------------------------- #


def test_async_client_run_and_run_many():
    import asyncio

    async def main():
        with BatchScheduler(jobs=1) as sched:
            client = AsyncClient(sched)
            single = await client.run(spec())
            assert single.scheme == "avgcc"
            seen = {}
            async for s, result in client.run_many(six_spec_batch()):
                seen[s] = result
            assert len(seen) == 4  # unique specs; duplicates collapse
            gathered = await client.gather([spec(), spec(scheme="baseline")])
            assert [r.scheme for r in gathered] == ["avgcc", "baseline"]
            return sched.stats()

    stats = asyncio.run(main())
    assert stats.executed == 4  # everything after the first call was deduped


# --------------------------------------------------------------------- #
# Front-ends
# --------------------------------------------------------------------- #


def test_serve_jsonl_streams_results_and_echoes_ids():
    requests = [
        {"spec": spec().to_dict(), "id": "first", "priority": 1},
        {"mix": "471+444", "scheme": "baseline", "quota": Q, "warmup": W},
        "# comment lines and blanks are ignored",
    ]
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in requests
    )
    out, err = io.StringIO(), io.StringIO()
    with BatchScheduler(jobs=1) as sched:
        code = serve_jsonl(sched, stdin=io.StringIO(text + "\n"), stdout=out, stderr=err)
    assert code == 0 and not err.getvalue()
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert {row["id"] for row in rows} == {"first", 2}
    assert all(row["ok"] and len(row["digest"]) == 64 for row in rows)


def test_serve_jsonl_reports_bad_lines_without_aborting():
    lines = "\n".join([json.dumps({"mix": "471+444", "quota": Q, "warmup": W}), "oops"])
    out, err = io.StringIO(), io.StringIO()
    with BatchScheduler(jobs=1) as sched:
        code = serve_jsonl(sched, stdin=io.StringIO(lines), stdout=out, stderr=err)
    assert code == 1
    assert "skipping line 2" in err.getvalue()
    assert len(out.getvalue().splitlines()) == 1  # the good line still ran


def test_serve_jsonl_version_mismatch_is_structured():
    lines = "\n".join(
        [
            json.dumps({"spec": spec().to_dict(), "protocol_version": 99}),
            json.dumps({"spec": spec().to_dict(), "protocol_version": 1, "id": "ok"}),
        ]
    )
    out, err = io.StringIO(), io.StringIO()
    with BatchScheduler(jobs=1) as sched:
        code = serve_jsonl(sched, stdin=io.StringIO(lines + "\n"), stdout=out, stderr=err)
    assert code == 1
    # The mismatch is reported with its taxonomy code, not a traceback,
    # and does not abort the stream: the v1 line still runs.
    assert "protocol_mismatch" in err.getvalue()
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [row["id"] for row in rows] == ["ok"]
    assert rows[0]["ok"] is True


def test_http_batch_version_mismatch_is_structured_400():
    import urllib.error

    with BatchScheduler(jobs=1) as sched:
        server = BatchHTTPServer(("127.0.0.1", 0), sched)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            body = json.dumps(
                [{"spec": spec().to_dict(), "protocol_version": 99}]
            ).encode()
            req = urllib.request.Request(f"http://127.0.0.1:{port}/batch", data=body)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            assert excinfo.value.code == 400
            payload = json.load(excinfo.value)
            assert payload["ok"] is False
            assert payload["code"] == "protocol_mismatch"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def test_http_batch_metrics_and_health_endpoints():
    with BatchScheduler(jobs=1) as sched:
        server = BatchHTTPServer(("127.0.0.1", 0), sched)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            body = json.dumps([spec().to_dict(), spec().to_dict()]).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/batch",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            results = json.load(urllib.request.urlopen(req, timeout=120))
            assert len(results) == 2
            assert results[0]["digest"] == results[1]["digest"]

            health = json.load(
                urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=30)
            )
            assert health["ok"] is True and health["submitted"] == 2

            metrics = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30
            ).read().decode()
            assert "repro_service_dedup_hits_total 1" in metrics

            bad = json.dumps({"mix": "471+999"}).encode()
            req = urllib.request.Request(f"http://127.0.0.1:{port}/batch", data=bad)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def test_scheduler_import_leaves_the_front_ends_unloaded():
    """``import repro.service.scheduler`` (every Session miss does it)
    must not pay for asyncio or http.server; the front-ends still
    resolve lazily from the package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro.service.scheduler; "
        "print(sorted({'asyncio', 'http.server'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
    import repro.service as service

    assert service.AsyncClient.__module__ == "repro.service.aio"
    assert service.serve_jsonl.__module__ == "repro.service.serve"
    with pytest.raises(AttributeError, match="no attribute"):
        service.does_not_exist
