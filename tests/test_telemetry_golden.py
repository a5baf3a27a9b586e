"""Golden telemetry output: Prometheus text, JSONL lines, span records.

Pins, byte for byte, what the service's telemetry surfaces emit for a
fixed input, so a refactor of the exporter or the record buffers cannot
silently change a scrape page or a JSONL file:

* the ``--metrics`` file (:meth:`BatchScheduler._write_outputs`, per-cell
  series on) and ``GET /metrics`` (per-cell series off), each for an
  untraced and a traced :class:`ServiceStats` plus one fixed
  :class:`RunReport`;
* the ``repro trace`` and ``--spans`` JSONL lines;
* the span record schema: a worker-built record survives adoption.

The expected scrape pages live in ``tests/golden_prometheus.json``.
Regenerate them only for a deliberate format change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_telemetry_golden.py
"""

import dataclasses
import io
import json
import os
import pathlib
import threading
import urllib.request
from types import SimpleNamespace

import pytest

from repro.api import RunSpec
from repro.execution.report import RunReport
from repro.obs import EventTracer
from repro.obs.metrics import latency_quantiles
from repro.obs.spans import SpanTracer, completed_span
from repro.service import BatchScheduler
from repro.service.serve import BatchHTTPServer

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_prometheus.json"

#: A scheme name carrying all three characters the exposition format
#: must escape in label values.
HOSTILE = 'we"ird\\sch\neme'
MIX = (471, 444)


def fixed_report() -> RunReport:
    report = RunReport(config={"jobs": 2})
    report.mark_hit((MIX, "baseline"))
    report.mark_hit(((429, 401), "ascc"))
    report.mark_ok((MIX, "avgcc"), 1.25)
    report.record((MIX, "avgcc")).attempts = 2
    report.record((MIX, "avgcc")).queue_seconds = 0.125
    report.mark_ok((MIX, HOSTILE), 0.5)
    report.record((MIX, HOSTILE)).attempts = 1
    failed = report.record(((445, 401), "dsr"))
    failed.status, failed.attempts, failed.duration = "failed", 3, 2.75
    failed.queue_seconds = 0.375
    report.record(((456, 444), "ecc"))  # still pending
    # Way-sweep cells share (mix, scheme) and a kernel cell has no mix:
    # only the ``cell`` label tells their series apart.
    for ways in (4, 8):
        report.mark_hit(RunSpec(mix=(473,), scheme="baseline", l2_ways=ways))
    report.mark_hit(RunSpec(kernel=("lu", 4), scheme="ascc"))
    # Cells differing only in a field the short name omits (L2 size,
    # seed) are told apart by the name's bracketed suffix.
    for size in (2, 4):
        report.mark_hit(RunSpec(mix=MIX, l2_paper_bytes=size << 20))
    for seed in (11, 13):
        report.mark_hit(RunSpec(mix=MIX, seed=seed))
    report.retried, report.timeouts, report.pool_deaths = 2, 1, 1
    report.cache_hits, report.cache_misses, report.cache_quarantined = 1, 3, 1
    report.interrupted = True
    # Pin the monotonic window so elapsed / utilization are exact.
    report._mono_started, report._mono_finished = 100.0, 104.0
    return report


def fixed_stats(traced: bool):
    tracer = None
    if traced:
        tracer = SpanTracer(capacity=7)
        for name, duration in (
            ("queue", 0.25),
            ("queue", 0.75),
            ("cache", 0.125),
            ("attempt", 1.5),
            ("attempt", 2.5),
            ("cell", 3.0),
        ):
            tracer.complete(name, duration=duration)
        tracer.adopt(
            completed_span(
                {"trace_id": "a" * 16, "span_id": "b" * 16},
                "execute",
                wall=1.0,
                duration=1.25,
                worker="w0",
            )
        )
        tracer.complete("queue", duration=0.5)  # pushes the first span out
    scheduler = BatchScheduler(start=False, journal=False, tracer=tracer)
    try:
        stats = scheduler.stats()
    finally:
        scheduler.close()
    return dataclasses.replace(
        stats,
        submitted=12,
        dedup_hits=2,
        cache_hits=3,
        executed=5,
        failed=1,
        cancelled=1,
        queue_depth=4,
        inflight=2,
        latency={
            "avgcc": latency_quantiles([0.5, 1.5, 2.0, 4.0]),
            HOSTILE: latency_quantiles([0.25]),
        },
        recovered=2,
        cache_tmp_swept=2,
        executor="cluster",
        workers_connected=2,
        leases_active=1,
        redispatches=3,
    )


def metrics_file(stats, report, tmp_path) -> str:
    """What ``BatchScheduler`` writes to its ``--metrics`` path."""
    path = tmp_path / "service.prom"
    owner = SimpleNamespace(
        metrics_path=path,
        stats=lambda: stats,
        report=report,
        tracer=None,
        spans_path=None,
        _flush_report=lambda: None,
    )
    BatchScheduler._write_outputs(owner)
    return path.read_bytes().decode()


def scrape(stats, report) -> str:
    """What ``GET /metrics`` serves."""
    server = BatchHTTPServer(
        ("127.0.0.1", 0), SimpleNamespace(stats=lambda: stats, report=report)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as reply:
            return reply.read().decode()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("per_cell", [True, False], ids=["per_cell", "no_cells"])
def test_prometheus_text_is_pinned(golden, tmp_path, traced, per_cell):
    stats, report = fixed_stats(traced), fixed_report()
    if per_cell:
        text = metrics_file(stats, report, tmp_path)
    else:
        text = scrape(stats, report)
    key = f"{'traced' if traced else 'untraced'}/{'per_cell' if per_cell else 'no_cells'}"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[key] = text
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    assert text == golden[key]


def test_no_golden_page_repeats_a_series(golden):
    """Prometheus rejects a page that names one series twice."""
    assert golden
    for key, text in golden.items():
        samples = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        repeated = sorted({s for s in samples if samples.count(s) > 1})
        assert not repeated, (key, repeated)


def test_per_cell_text_extends_the_scrape_page(tmp_path):
    stats, report = fixed_stats(True), fixed_report()
    full, scraped = metrics_file(stats, report, tmp_path), scrape(stats, report)
    assert full.startswith(scraped)
    assert "repro_cell_seconds" in full and "repro_cell_seconds" not in scraped


def test_event_jsonl_is_pinned():
    tracer = EventTracer(capacity=2)
    tracer.emit("spill", src=0, dst=1, set=3, addr=42)
    tracer.emit("regrain", cache=1, old_d=8, new_d=7, counters=2)
    tracer.emit("receive_flip", cache=0, set=5, mode="mru")
    stream = io.StringIO()
    assert tracer.write_jsonl(stream) == 2
    assert stream.getvalue() == (
        '{"cache": 1, "counters": 2, "kind": "regrain", "new_d": 7, "old_d": 8, "seq": 2}\n'
        '{"cache": 0, "kind": "receive_flip", "mode": "mru", "seq": 3, "set": 5}\n'
    )
    assert tracer.dropped == 1


def test_span_jsonl_is_pinned():
    tracer = SpanTracer()
    tracer.adopt(
        {
            "trace_id": "a" * 16,
            "span_id": "c" * 16,
            "parent_id": "b" * 16,
            "name": "execute",
            "wall": 1.23456789,
            "duration": 0.5,
            "worker": "w0",
        }
    )
    tracer.adopt({"name": "cell", "trace_id": "d" * 16, "span_id": "e" * 16, "status": "cancelled"})
    stream = io.StringIO()
    assert tracer.write_jsonl(stream) == 2
    assert stream.getvalue() == (
        '{"duration": 0.5, "name": "execute", "parent_id": "bbbbbbbbbbbbbbbb", '
        '"span_id": "cccccccccccccccc", "status": "ok", "trace_id": "aaaaaaaaaaaaaaaa", '
        '"wall": 1.234568, "worker": "w0"}\n'
        '{"duration": 0.0, "name": "cell", "parent_id": null, "span_id": "eeeeeeeeeeeeeeee", '
        '"status": "cancelled", "trace_id": "dddddddddddddddd", "wall": 0.0}\n'
    )


def test_worker_span_record_round_trips_through_adopt():
    ctx = {"trace_id": "a" * 16, "span_id": "b" * 16}
    record = completed_span(
        ctx, "execute", wall=1712.123456789, duration=0.3333333333, status="failed", worker="w1"
    )
    assert record["parent_id"] == "b" * 16 and record["trace_id"] == "a" * 16
    assert SpanTracer().adopt(record).to_dict() == record
    # A context-free record roots a fresh trace and still round-trips.
    orphan = completed_span(None, "execute", wall=0.0, duration=-1.0)
    assert orphan["parent_id"] is None and orphan["duration"] == 0.0
    assert SpanTracer().adopt(orphan).to_dict() == orphan
