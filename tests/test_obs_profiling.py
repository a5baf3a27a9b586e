"""Pipeline profiling: RunReport timing/cache fields + Prometheus export."""

import json

import pytest

from repro.api import RunSpec, Session
from repro.execution.report import RunReport
from repro.experiments.parallel import ResultCache
from repro.obs.metrics import prometheus_text
from repro.service.executor import LocalPoolExecutor
from repro.service.scheduler import ServiceStats
from repro.sim.results import SystemResult

MIX = (444, 445)


#: An idle service snapshot to render reports beside.
IDLE = ServiceStats(
    submitted=0,
    dedup_hits=0,
    cache_hits=0,
    executed=0,
    failed=0,
    cancelled=0,
    queue_depth=0,
    inflight=0,
)

#: A tiny spec for the end-to-end reporting tests.
TINY = RunSpec(mix=MIX, scheme="baseline", quota=2_000, warmup=1_000)


def tiny_session(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cells")
    return Session(**kwargs)


# --------------------------------------------------------------------- #
# RunReport fields
# --------------------------------------------------------------------- #


def test_report_version_bumped_for_new_fields():
    # v4: per-cell ``phases`` span-rollup timings (empty dict untraced)
    # v5: ``counts`` without ``memory``
    # v6: no watchdog kill counter, ``counts`` without ``hits``
    assert RunReport.VERSION == 6
    payload = RunReport().to_dict()
    assert "watchdog_kills" not in payload
    assert set(payload["counts"]) == {"total", "cache", "simulated", "failed", "pending"}


def test_timing_fields_accumulate():
    report = RunReport(config={"jobs": 2})
    cell_a, cell_b = ((MIX, "avgcc")), ((MIX, "baseline"))
    report.mark_ok(cell_a, 1.5)
    report.mark_ok(cell_b, 0.5)
    report.record(cell_a).queue_seconds += 0.25
    assert report.busy_seconds == pytest.approx(2.0)
    assert report.queue_seconds == pytest.approx(0.25)
    assert report.elapsed >= 0.0
    report.finalize()
    frozen = report.elapsed
    assert report.elapsed == frozen  # finalize pins the wall clock
    expected = 2.0 / (frozen * 2) if frozen else 0.0
    assert report.worker_utilization == pytest.approx(expected)


def test_cache_hit_ratio():
    report = RunReport()
    assert report.cache_hit_ratio == 0.0
    report.cache_hits, report.cache_misses = 3, 1
    assert report.cache_hit_ratio == pytest.approx(0.75)


def test_to_dict_carries_timing_and_cache_sections():
    report = RunReport(config={"jobs": 1})
    report.mark_ok((MIX, "avgcc"), 0.75)
    report.cache_hits = 2
    report.finalize()
    payload = report.to_dict()
    assert payload["version"] == RunReport.VERSION
    assert payload["timing"]["busy_seconds"] == pytest.approx(0.75)
    assert payload["timing"]["elapsed"] >= 0
    assert payload["cache"] == {
        "hits": 2,
        "misses": 0,
        "quarantined": 0,
        "hit_ratio": 1.0,
    }
    assert payload["cells"][0]["queue_seconds"] == 0.0
    # And it is still JSON-serialisable end to end.
    json.dumps(payload)


def test_local_executor_charges_queue_latency():
    def worker(payload):
        return payload["cell"], payload["cell"]

    report = RunReport()
    executor = LocalPoolExecutor().bind(worker=worker, report=report)
    for cell in (("a",), ("b",)):
        executor.submit(cell, {"cell": cell})
    executor.drain()
    for rec in report.records.values():
        assert rec.queue_seconds >= 0.0
    assert report.queue_seconds >= 0.0


# --------------------------------------------------------------------- #
# Prometheus rendering
# --------------------------------------------------------------------- #


def test_prometheus_exposition_shape():
    report = RunReport(config={"jobs": 4})
    report.mark_hit((MIX, "baseline"))
    report.mark_ok((MIX, "avgcc"), 1.25)
    report.record((MIX, "avgcc")).attempts = 2
    report.cache_hits, report.cache_misses = 1, 1
    report.finalize()
    text = prometheus_text(IDLE, report)
    lines = text.splitlines()
    assert text.endswith("\n")
    # Every sample line is preceded by HELP/TYPE for its metric family.
    assert 'repro_run_cells{outcome="cache"} 1' in lines
    assert 'repro_run_cells{outcome="simulated"} 1' in lines
    assert "# TYPE repro_run_wall_seconds gauge" in lines
    assert 'repro_result_cache_lookups_total{result="hit"} 1' in lines
    assert 'repro_result_cache_lookups_total{result="miss"} 1' in lines
    assert "repro_result_cache_hit_ratio 0.5" in lines
    cell = 'cell="444+445/avgcc",mix="444+445",scheme="avgcc"'
    assert f"repro_cell_seconds{{{cell}}} 1.25" in lines
    assert f"repro_cell_attempts{{{cell}}} 2" in lines
    assert any(line.startswith("repro_run_worker_utilization ") for line in lines)


def test_prometheus_per_cell_suppression():
    report = RunReport()
    report.mark_ok((MIX, "avgcc"), 1.0)
    report.finalize()
    assert "repro_cell_seconds" in prometheus_text(IDLE, report)
    assert "repro_cell_seconds" not in prometheus_text(IDLE, report, per_cell=False)


# --------------------------------------------------------------------- #
# ResultCache lookup counters
# --------------------------------------------------------------------- #


def test_result_cache_counts_hits_and_misses(tmp_path):
    cache = ResultCache(tmp_path)
    result = SystemResult(scheme="s", workload="w")
    assert cache.get("ab" * 32) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put("ab" * 32, result)
    assert cache.get("ab" * 32) is not None
    assert (cache.hits, cache.misses) == (1, 1)


def test_result_cache_corruption_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    result = SystemResult(scheme="s", workload="w")
    key = "cd" * 32
    cache.put(key, result)
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[:-7])  # truncate: checksum fails
    assert cache.get(key) is None
    assert cache.misses == 1 and cache.quarantined == 1


# --------------------------------------------------------------------- #
# End-to-end: prewarm fills the new fields, --metrics lands on disk
# --------------------------------------------------------------------- #


def test_prewarm_reports_cache_traffic_and_metrics(tmp_path):
    metrics = tmp_path / "run.prom"
    report = tiny_session(tmp_path, metrics_path=metrics).prewarm([TINY])
    # Fresh cache: every wanted cell was looked up and missed.
    assert report.cache_hits == 0
    assert report.cache_misses == report.counts["simulated"] > 0
    assert report.busy_seconds > 0.0
    assert metrics.exists()
    text = metrics.read_text()
    assert 'repro_result_cache_lookups_total{result="miss"}' in text

    # Second session, same cache: all hits, ratio 1, metrics rewritten.
    report2 = tiny_session(tmp_path, metrics_path=metrics).prewarm([TINY])
    assert report2.cache_misses == 0
    assert report2.cache_hits == report2.counts["cache"] > 0
    assert report2.cache_hit_ratio == 1.0
    assert "repro_result_cache_hit_ratio 1.0" in metrics.read_text()

    # The JSON manifest carries the same cache section.
    manifest = json.loads((tmp_path / "cells" / "run_report.json").read_text())
    assert manifest["cache"]["hit_ratio"] == 1.0


def test_cli_metrics_flag_writes_prometheus(tmp_path, capsys):
    from repro.cli import main

    metrics = tmp_path / "cli.prom"
    code = main(
        [
            "run",
            "--mix", "444+445",
            "--scheme", "baseline",
            "--quota", "2000",
            "--warmup", "1000",
            "--metrics", str(metrics),
        ]
    )
    assert code == 0
    assert "repro_run_cells" in metrics.read_text()
