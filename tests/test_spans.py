"""End-to-end span tracing for the batch/cluster tier (PR 10 tentpole).

Covers the tracer itself (ids, nesting, ring bounds, adoption), the
wire trace context (frame field, HTTP header), the scheduler's span
tree for local batches, the cluster stitch (remote execute spans share
the coordinator cell's trace), the respan on worker-lost redispatch,
the ``repro spans`` CLI and — the invariant everything hangs off —
that tracing never perturbs simulation results.
"""

import io
import json
import threading
import time
from collections import Counter

import pytest

from repro.api import RunSpec, result_digest
from repro.obs.spans import (
    SpanTracer,
    completed_span,
    format_summary,
    format_trace_tree,
    load_spans,
    new_id,
)
from repro.obs.metrics import prometheus_text
from repro.service import BatchScheduler, run_batch, wire

Q, W = 1_500, 500


def spec(mix="471+444", scheme="avgcc", **kw):
    return RunSpec(mix=mix, scheme=scheme, quota=Q, warmup=W, **kw)


# --------------------------------------------------------------------- #
# SpanTracer unit behaviour
# --------------------------------------------------------------------- #


def test_begin_finish_nesting_and_ids():
    tracer = SpanTracer()
    root = tracer.begin("batch")
    child = tracer.begin("cell", root, cell="471+444/avgcc")
    assert len(root.trace_id) == 16 and len(root.span_id) == 16
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert not child.finished
    tracer.finish(child)
    tracer.finish(root)
    assert child.finished and root.finished
    assert child.duration >= 0.0
    assert tracer.counters() == {
        "started": 2, "finished": 2, "adopted": 0, "dropped": 0
    }


def test_finish_is_idempotent():
    tracer = SpanTracer()
    span = tracer.begin("cell")
    tracer.finish(span, status="ok")
    first = span.duration
    time.sleep(0.01)
    tracer.finish(span, status="failed")
    assert span.duration == first
    assert span.status == "ok"
    assert tracer.counters()["finished"] == 1


def test_ring_drops_oldest_and_counts():
    tracer = SpanTracer(capacity=4)
    for index in range(10):
        tracer.finish(tracer.begin("cell", index=index))
    assert len(tracer.spans) == 4
    assert tracer.dropped == 6
    assert [span.attrs["index"] for span in tracer.spans] == [6, 7, 8, 9]
    assert tracer.counters()["dropped"] == 6


def test_complete_records_hindsight_span_under_parent():
    tracer = SpanTracer()
    root = tracer.begin("cell")
    span = tracer.complete("queue", root, duration=1.25)
    assert span.finished and span.duration == 1.25
    assert span.trace_id == root.trace_id
    assert span.parent_id == root.span_id
    counters = tracer.counters()
    assert counters["started"] == 2 and counters["finished"] == 1


def test_adopt_trusts_remote_ids_and_drops_garbage():
    tracer = SpanTracer()
    lease_ctx = {"trace_id": new_id(), "span_id": new_id()}
    record = completed_span(lease_ctx, "execute", wall=123.0, duration=0.5, worker="w0")
    adopted = tracer.adopt(record)
    assert adopted is not None
    assert adopted.trace_id == lease_ctx["trace_id"]
    assert adopted.parent_id == lease_ctx["span_id"]
    assert adopted.duration == 0.5
    assert tracer.adopt({"no": "name"}) is None
    assert tracer.counters()["adopted"] == 1


def test_rollup_sums_phases_under_cell_ancestors():
    tracer = SpanTracer()
    batch = tracer.begin("batch")
    cell = tracer.begin("cell", batch)
    tracer.complete("queue", cell, duration=0.25)
    attempt = tracer.begin("attempt", cell)
    tracer.finish(attempt)
    tracer.finish(cell)
    tracer.finish(batch)
    rollup = tracer.rollup()
    assert set(rollup) == {cell.span_id}
    phases = rollup[cell.span_id]
    assert phases["queue"] == 0.25
    assert {"cell", "attempt"} <= set(phases)


def test_jsonl_round_trip():
    tracer = SpanTracer()
    span = tracer.begin("cell", cell="471+444/avgcc")
    tracer.finish(span)
    stream = io.StringIO()
    tracer.write_jsonl(stream)
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(records) == 1
    assert records[0]["name"] == "cell"
    assert records[0]["cell"] == "471+444/avgcc"
    assert records[0]["span_id"] == span.span_id


# --------------------------------------------------------------------- #
# Wire trace context: frame field and HTTP header forms
# --------------------------------------------------------------------- #


def test_check_trace_accepts_context_and_rejects_garbage():
    assert wire.check_trace({}) is None
    ctx = wire.check_trace({"trace": {"trace_id": "ab" * 8, "span_id": "cd" * 8}})
    assert ctx == {"trace_id": "ab" * 8, "span_id": "cd" * 8}
    with pytest.raises(wire.WireError):
        wire.check_trace({"trace": "not-a-mapping"})
    with pytest.raises(wire.WireError):
        wire.check_trace({"trace": {"span_id": "cd" * 8}})


def test_parse_request_carries_optional_trace():
    payload = {"spec": {"mix": "471+444"}, "trace": {"trace_id": "ab" * 8}}
    request = wire.parse_request(payload, default_id=1)
    assert request.trace == {"trace_id": "ab" * 8}
    assert wire.parse_request({"mix": "471+444"}, default_id=1).trace is None


def test_format_and_parse_trace_header_round_trip():
    ctx = {"trace_id": "ab" * 8, "span_id": "cd" * 8}
    text = wire.format_trace(ctx)
    assert text == "ab" * 8 + "-" + "cd" * 8
    assert wire.parse_trace(text) == ctx
    assert wire.parse_trace("ab" * 8) == {"trace_id": "ab" * 8}
    assert wire.parse_trace(None) is None
    assert wire.parse_trace("   ") is None
    for bad in ("zz" * 8, "a-b-c", "ab" * 8 + "-xyz"):
        with pytest.raises(wire.WireError):
            wire.parse_trace(bad)


# --------------------------------------------------------------------- #
# Local batches: the span tree and the do-no-harm invariant
# --------------------------------------------------------------------- #


def run_traced(tmp_path, specs, **kw):
    path = tmp_path / "spans.jsonl"
    outcomes, stats, report = run_batch(specs, spans_path=path, **kw)
    return outcomes, stats, report, load_spans(path)


def test_local_batch_emits_the_span_tree(tmp_path):
    specs = [spec(), spec(scheme="baseline")]
    _outcomes, stats, _report, records = run_traced(tmp_path, specs, jobs=2)
    names = Counter(record["name"] for record in records)
    assert names["cell"] == 2
    assert names["attempt"] == 2
    assert names["queue"] == 2
    # Without an inbound context, every cell roots its own trace.
    cells = [record for record in records if record["name"] == "cell"]
    assert all(record["parent_id"] is None for record in cells)
    assert len({record["trace_id"] for record in cells}) == 2
    by_id = {record["span_id"]: record for record in records}
    for record in records:
        if record["name"] == "attempt":
            cell = by_id[record["parent_id"]]
            assert cell["name"] == "cell"
            assert cell["trace_id"] == record["trace_id"]
            assert record["executor"] == "local"
    assert stats.spans["started"] > 0
    assert "cell" in stats.span_phases


def test_tracing_does_not_change_digests(tmp_path):
    specs = [spec(), spec(scheme="baseline")]
    plain, _s, _r = run_batch(specs, jobs=1)
    traced, _s2, _r2, records = run_traced(tmp_path, specs, jobs=1)
    assert records, "tracing produced no spans"
    assert [result_digest(r) for r in plain] == [result_digest(r) for r in traced]


def test_untraced_scheduler_has_no_tracer_and_full_stats(tmp_path):
    outcomes, stats, _report = run_batch([spec()], jobs=1)
    assert not isinstance(outcomes[0], Exception)
    assert stats.spans == {}
    assert stats.span_phases == {}
    data = stats.to_dict()
    assert data["stats_version"] == 4
    assert data["submitted"] == 1


def test_dedup_and_cache_hits_show_up_as_spans(tmp_path):
    path = tmp_path / "spans.jsonl"
    scheduler = BatchScheduler(jobs=1, spans_path=path)
    try:
        first = scheduler.submit(spec())
        second = scheduler.submit(spec())  # same spec: dedup
        first.result(timeout=300)
        second.result(timeout=300)
        third = scheduler.submit(spec())  # memory hit
        third.result(timeout=300)
    finally:
        scheduler.close(drain=True)
    records = load_spans(path)
    sources = Counter(
        record.get("source") for record in records if record["name"] == "dedup"
    )
    assert sources["inflight"] == 1
    assert sources["memory"] == 1


def test_report_v4_carries_per_cell_phase_timings(tmp_path):
    from repro.execution.report import RunReport

    one = spec()
    _outcomes, _stats, report, _records = run_traced(tmp_path, [one], jobs=1)
    assert RunReport.VERSION == 6
    record = report.record(one)
    assert record.phases, "traced cell has no phase timings"
    assert "attempt" in record.phases
    assert record.to_dict()["phases"]["attempt"] >= 0.0


def test_inbound_trace_context_is_honoured(tmp_path):
    path = tmp_path / "spans.jsonl"
    inbound = {"trace_id": "fe" * 8, "span_id": "da" * 8}
    scheduler = BatchScheduler(jobs=1, spans_path=path)
    try:
        scheduler.submit(spec(), trace=inbound).result(timeout=300)
    finally:
        scheduler.close(drain=True)
    (cell,) = [r for r in load_spans(path) if r["name"] == "cell"]
    assert cell["trace_id"] == inbound["trace_id"]
    assert cell["parent_id"] == inbound["span_id"]


# --------------------------------------------------------------------- #
# Cluster: remote execute spans stitch into the coordinator's trace
# --------------------------------------------------------------------- #


def cluster_scheduler(**kw):
    kw.setdefault("executor", "cluster")
    options = kw.setdefault("executor_options", {})
    options.setdefault("listen", "127.0.0.1:0")
    return BatchScheduler(**kw)


def start_workers(scheduler, count=1, slots=2, prefix="w"):
    from repro.cluster import WorkerClient

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


def test_remote_leases_stitch_into_the_cell_trace(tmp_path):
    path = tmp_path / "spans.jsonl"
    specs = [spec(), spec(scheme="baseline")]
    scheduler = cluster_scheduler(spans_path=path)
    clients, threads = start_workers(scheduler, count=1, slots=2)
    try:
        futures = [scheduler.submit(s) for s in specs]
        for future in futures:
            future.result(timeout=300)
    finally:
        scheduler.close(drain=True)
        for client in clients:
            client.stop()
        for thread in threads:
            thread.join(timeout=5)
    records = load_spans(path)
    by_id = {record["span_id"]: record for record in records}
    executes = [record for record in records if record["name"] == "execute"]
    assert len(executes) == 2
    for execute in executes:
        lease = by_id[execute["parent_id"]]
        attempt = by_id[lease["parent_id"]]
        cell = by_id[attempt["parent_id"]]
        assert (lease["name"], attempt["name"], cell["name"]) == (
            "lease", "attempt", "cell"
        )
        # One trace_id from the coordinator's cell span down to the
        # remote worker's execute span: the stitch the PR is about.
        assert (
            execute["trace_id"] == lease["trace_id"]
            == attempt["trace_id"] == cell["trace_id"]
        )
        assert execute["worker"] in ("w0/0", "w0/1")  # the lane that ran it


def test_local_retry_respans_as_second_attempt_under_one_cell(tmp_path):
    """A local cell crashing on attempt 1 shows one attempt span per
    charge under its cell: the failed one, then the successful retry."""
    from repro.execution.faults import Fault, FaultPlan

    victim = spec()
    plan = FaultPlan({victim: Fault("crash", attempt=1)})
    outcomes, _stats, report, records = run_traced(
        tmp_path, [victim], jobs=1,
        executor_options={"fault_plan": plan, "backoff": 0.0},
    )
    assert not isinstance(outcomes[0], Exception)
    assert report.record(victim).attempts == 2
    by_id = {record["span_id"]: record for record in records}
    attempts = [record for record in records if record["name"] == "attempt"]
    assert [record["attempt"] for record in attempts] == [1, 2]
    assert [record["status"] for record in attempts] == ["error", "ok"]
    cells = {by_id[record["parent_id"]]["span_id"] for record in attempts}
    assert len(cells) == 1 and by_id[cells.pop()]["name"] == "cell"
    assert len({record["trace_id"] for record in attempts}) == 1


def test_killed_worker_respans_as_second_attempt_under_one_cell(tmp_path):
    """Kill a worker provably mid-lease: the redispatched lease appears
    as a *second* attempt span under the same cell trace, the first
    marked ``worker-lost`` — and the digests still match a local run."""
    from repro.execution.faults import Fault, FaultPlan

    specs = [
        spec(scheme=s) for s in ("baseline", "avgcc", "ascc", "dsr", "ecc", "cc")
    ]
    local, _stats, _report = run_batch(specs, jobs=2)
    expected = Counter(result_digest(r) for r in local)

    path = tmp_path / "spans.jsonl"
    plan = FaultPlan({specs[0]: Fault("hang", attempt=1, seconds=8.0)})
    scheduler = cluster_scheduler(
        executor_options={"listen": "127.0.0.1:0", "fault_plan": plan},
        spans_path=path,
    )
    clients, threads = start_workers(scheduler, count=1, slots=2)
    victim = clients[0]
    futures = [scheduler.submit(s) for s in specs]
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if scheduler.stats().leases_active:
            break
        time.sleep(0.005)
    else:
        raise AssertionError("victim never started a lease")
    victim.stop()  # kills its lanes mid-lease
    relief, relief_threads = start_workers(scheduler, count=1, slots=2, prefix="relief")
    try:
        remote = [f.result(timeout=300) for f in futures]
        stats = scheduler.stats()
    finally:
        scheduler.close(drain=True)
        for client in relief:
            client.stop()
        for thread in relief_threads:
            thread.join(timeout=5)
        threads[0].join(timeout=5)

    assert stats.redispatches >= 1
    assert Counter(result_digest(r) for r in remote) == expected

    records = load_spans(path)
    by_id = {record["span_id"]: record for record in records}
    attempts_per_cell: dict = {}
    for record in records:
        if record["name"] != "attempt":
            continue
        cell = by_id.get(record["parent_id"])
        if cell is not None:
            attempts_per_cell.setdefault(cell["span_id"], []).append(record)
    respanned = {
        cell_id: attempts
        for cell_id, attempts in attempts_per_cell.items()
        if len(attempts) >= 2
    }
    assert respanned, "no cell shows the redispatched lease as a second attempt"
    for attempts in respanned.values():
        statuses = {record["status"] for record in attempts}
        assert "worker-lost" in statuses or "worker-hung" in statuses
        assert "ok" in statuses
        assert len({record["trace_id"] for record in attempts}) == 1


# --------------------------------------------------------------------- #
# HTTP front-end: X-Repro-Trace accepted and echoed
# --------------------------------------------------------------------- #


def test_http_batch_echoes_trace_header_and_stitches(tmp_path):
    import urllib.request

    from repro.service.serve import BatchHTTPServer

    path = tmp_path / "spans.jsonl"
    scheduler = BatchScheduler(jobs=1, spans_path=path)
    server = BatchHTTPServer(("127.0.0.1", 0), scheduler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    inbound_trace = "ab" * 8
    try:
        body = json.dumps([{"mix": "471+444", "quota": Q, "warmup": W}]).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/batch",
            data=body,
            headers={
                "Content-Type": "application/json",
                wire.TRACE_HEADER: inbound_trace + "-" + "cd" * 8,
            },
        )
        with urllib.request.urlopen(request, timeout=300) as response:
            echoed = response.headers.get(wire.TRACE_HEADER)
            payload = json.loads(response.read())
        assert payload[0]["ok"] is True
        # The echoed context continues the caller's trace.
        assert echoed is not None and echoed.startswith(inbound_trace + "-")

        # A malformed header is a structured 400, not a traceback.
        bad = urllib.request.Request(
            f"http://127.0.0.1:{port}/batch",
            data=body,
            headers={wire.TRACE_HEADER: "not-hex!"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(bad, timeout=30)
        assert excinfo.value.code == 400
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        scheduler.close(drain=True)
    records = load_spans(path)
    http_spans = [r for r in records if r["name"] == "http"]
    assert len(http_spans) == 1
    assert http_spans[0]["trace_id"] == inbound_trace
    cells = [r for r in records if r["name"] == "cell"]
    assert cells and all(r["trace_id"] == inbound_trace for r in cells)


# --------------------------------------------------------------------- #
# Prometheus export and the `repro spans` CLI
# --------------------------------------------------------------------- #


def test_prometheus_export_carries_span_metrics(tmp_path):
    _outcomes, stats, report, _records = run_traced(tmp_path, [spec()], jobs=1)
    text = prometheus_text(stats, report)
    assert 'repro_spans_total{state="started"}' in text
    assert 'repro_span_seconds{phase="cell",quantile="0.5"}' in text
    assert "repro_span_seconds_count" in text
    # An untraced snapshot omits the span families entirely.
    _plain, plain_stats, plain_report = run_batch([spec()], jobs=1)
    assert "repro_spans_total" not in prometheus_text(plain_stats, plain_report)


def test_spans_cli_summary_and_tree(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "spans.jsonl"
    run_batch([spec(), spec(scheme="baseline")], jobs=1, spans_path=path)
    assert main(["spans", str(path), "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown" in out
    assert "slowest cells (top 1)" in out

    trace_id = load_spans(path)[0]["trace_id"]
    assert main(["spans", str(path), "--trace", trace_id]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}:" in out
    assert "cell" in out

    with pytest.raises(SystemExit):
        main(["spans", str(path), "--trace", "0" * 16])
    with pytest.raises(SystemExit):
        main(["spans", str(tmp_path / "missing.jsonl")])


def test_format_helpers_handle_empty_and_unknown(tmp_path):
    assert format_trace_tree([], "ab" * 8) == ""
    summary = format_summary(
        [{"trace_id": "t", "span_id": "s", "name": "cell", "duration": 0.5}]
    )
    assert "1 spans across 1 traces" in summary


def test_batch_cli_spans_flag_writes_jsonl(tmp_path, capsys):
    from repro.cli import main

    specs_file = tmp_path / "specs.json"
    specs_file.write_text(
        json.dumps([{"mix": "471+444", "quota": Q, "warmup": W}])
    )
    spans_file = tmp_path / "spans.jsonl"
    assert main(["batch", str(specs_file), "--spans", str(spans_file)]) == 0
    capsys.readouterr()
    records = load_spans(spans_file)
    assert any(record["name"] == "cell" for record in records)
