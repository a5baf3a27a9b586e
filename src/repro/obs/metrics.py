"""Prometheus-style text export for run reports.

Renders a :class:`~repro.execution.report.RunReport` in the
Prometheus text exposition format (``# HELP`` / ``# TYPE`` comments plus
``name{labels} value`` lines), so a cron-driven experiment campaign can
drop a ``.prom`` file for a node-exporter textfile collector — or a
human can grep one run's utilization without parsing JSON.

Only the stdlib is used; nothing here talks to a network.
"""

from __future__ import annotations

from typing import IO, Iterable

_PREFIX = "repro"


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash first (it is the escape character itself), then quote and
    newline — scheme/mix names containing any of the three would
    otherwise emit an unparsable scrape page.
    """
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def escape_help(text: str) -> str:
    """Escape ``# HELP`` text per the spec: backslash and newline only
    (quotes are legal in help text, unlike in label values)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


#: Backwards-compatible alias (pre-PR-9 name).
_escape = escape_label_value


def _labels(**labels: object) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(val))}"' for key, val in labels.items()
    )
    return "{" + inner + "}"


def _metric(lines: list, name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {_PREFIX}_{name} {escape_help(help_text)}")
    lines.append(f"# TYPE {_PREFIX}_{name} {kind}")


def _sample(lines: list, name: str, value: object, **labels: object) -> None:
    lines.append(f"{_PREFIX}_{name}{_labels(**labels)} {_format(value)}")


def _format(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_prometheus(report, per_cell: bool = True) -> str:
    """Render a :class:`RunReport` as Prometheus exposition text.

    ``per_cell=False`` drops the per-cell series (useful when a huge
    sweep would make the scrape page unwieldy); the run-level metrics
    are always present.
    """
    lines: list = []
    counts = report.counts

    _metric(lines, "run_cells", "gauge", "Cells in the sweep, by outcome source.")
    _sample(lines, "run_cells", counts["total"], outcome="total")
    for outcome in ("memory", "cache", "simulated", "failed", "pending"):
        _sample(lines, "run_cells", counts[outcome], outcome=outcome)

    _metric(lines, "run_attempts_total", "counter", "Simulation attempts charged.")
    _sample(lines, "run_attempts_total", report.total_attempts)
    _metric(lines, "run_retries_total", "counter", "Attempts that were retries.")
    _sample(lines, "run_retries_total", report.retried)
    _metric(lines, "run_timeouts_total", "counter", "Cells killed by the per-cell timeout.")
    _sample(lines, "run_timeouts_total", report.timeouts)
    _metric(lines, "run_pool_deaths_total", "counter", "Worker-pool respawns after hard deaths.")
    _sample(lines, "run_pool_deaths_total", report.pool_deaths)
    _metric(
        lines,
        "run_watchdog_kills_total",
        "counter",
        "Hung workers SIGKILLed by the heartbeat watchdog.",
    )
    _sample(lines, "run_watchdog_kills_total", getattr(report, "watchdog_kills", 0))
    _metric(lines, "run_degraded_serial", "gauge", "1 if the sweep finished in-process.")
    _sample(lines, "run_degraded_serial", report.degraded_serial)
    _metric(lines, "run_interrupted", "gauge", "1 if the sweep was interrupted.")
    _sample(lines, "run_interrupted", report.interrupted)

    _metric(lines, "run_wall_seconds", "gauge", "Wall-clock duration of the sweep.")
    _sample(lines, "run_wall_seconds", report.elapsed)
    _metric(lines, "run_busy_seconds", "gauge", "Summed simulation time across workers.")
    _sample(lines, "run_busy_seconds", report.busy_seconds)
    _metric(lines, "run_queue_seconds", "gauge", "Summed cell queue latency (ready to submitted).")
    _sample(lines, "run_queue_seconds", report.queue_seconds)
    _metric(lines, "run_worker_utilization", "gauge", "busy_seconds / (wall * workers).")
    _sample(lines, "run_worker_utilization", report.worker_utilization)

    _metric(lines, "result_cache_lookups_total", "counter", "Disk result-cache lookups, by result.")
    _sample(lines, "result_cache_lookups_total", report.cache_hits, result="hit")
    _sample(lines, "result_cache_lookups_total", report.cache_misses, result="miss")
    _metric(lines, "result_cache_quarantined_total", "counter", "Corrupt cache entries quarantined.")
    _sample(lines, "result_cache_quarantined_total", report.cache_quarantined)
    _metric(lines, "result_cache_hit_ratio", "gauge", "Disk-cache hit ratio for this run.")
    _sample(lines, "result_cache_hit_ratio", report.cache_hit_ratio)

    if per_cell and report.records:
        from repro.execution.report import cell_parts

        _metric(lines, "cell_seconds", "gauge", "Simulation wall time per cell.")
        for rec in report.records.values():
            codes, scheme = cell_parts(rec.cell)
            mix = "+".join(str(c) for c in codes)
            _sample(lines, "cell_seconds", rec.duration, mix=mix, scheme=scheme)
        _metric(lines, "cell_queue_seconds", "gauge", "Queue latency per cell.")
        for rec in report.records.values():
            codes, scheme = cell_parts(rec.cell)
            mix = "+".join(str(c) for c in codes)
            _sample(lines, "cell_queue_seconds", rec.queue_seconds, mix=mix, scheme=scheme)
        _metric(lines, "cell_attempts", "gauge", "Attempts charged per cell.")
        for rec in report.records.values():
            codes, scheme = cell_parts(rec.cell)
            mix = "+".join(str(c) for c in codes)
            _sample(lines, "cell_attempts", rec.attempts, mix=mix, scheme=scheme)

    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Batch-service metrics
# --------------------------------------------------------------------- #


def percentile(values: list, fraction: float) -> float:
    """Linearly interpolated percentile of ``values`` (``fraction`` in [0, 1]).

    Uses the standard "linear" method (numpy's default): the requested
    quantile sits at rank ``h = fraction * (n - 1)`` over the sorted
    values; a non-integral rank interpolates between the two bracketing
    order statistics.  Guarantees ``min <= result <= max``, exactness on
    singletons and duplicate-heavy inputs, and monotonicity in
    ``fraction``.  Empty input returns 0.0 (a summary with count 0).
    """
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    fraction = min(1.0, max(0.0, float(fraction)))
    rank = fraction * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def latency_quantiles(samples: Iterable[float]) -> dict:
    """Summary statistics for one scheme's submit-to-result latencies."""
    values = [float(v) for v in samples]
    if not values:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "sum": sum(values),
        "p50": percentile(values, 0.50),
        "p90": percentile(values, 0.90),
        "p99": percentile(values, 0.99),
        "max": max(values),
    }


def service_to_prometheus(stats) -> str:
    """Render a batch-service stats snapshot as Prometheus text.

    ``stats`` is a :class:`repro.service.scheduler.ServiceStats`, read
    through its versioned ``to_dict()`` schema (duck typed to keep this
    module stdlib-only and import-light — any object exposing the same
    dict shape works): queue depth, in-flight count, the
    dedup/cache/executed counters, span counters/phase summaries and the
    per-scheme submit-to-result latency summaries.
    """
    data = stats.to_dict() if hasattr(stats, "to_dict") else dict(vars(stats))
    lines: list = []
    _metric(lines, "service_queue_depth", "gauge", "Specs queued, not yet executing.")
    _sample(lines, "service_queue_depth", data.get("queue_depth", 0))
    _metric(lines, "service_inflight", "gauge", "Specs currently executing.")
    _sample(lines, "service_inflight", data.get("inflight", 0))
    _metric(lines, "service_submitted_total", "counter", "Specs submitted to the service.")
    _sample(lines, "service_submitted_total", data.get("submitted", 0))
    _metric(
        lines,
        "service_dedup_hits_total",
        "counter",
        "Submissions that joined an identical pending or in-flight spec.",
    )
    _sample(lines, "service_dedup_hits_total", data.get("dedup_hits", 0))
    _metric(
        lines,
        "service_cache_hits_total",
        "counter",
        "Submissions satisfied from memory or the disk result cache.",
    )
    _sample(lines, "service_cache_hits_total", data.get("cache_hits", 0))
    _metric(lines, "service_executed_total", "counter", "Specs actually simulated.")
    _sample(lines, "service_executed_total", data.get("executed", 0))
    _metric(lines, "service_failed_total", "counter", "Specs that exhausted retries.")
    _sample(lines, "service_failed_total", data.get("failed", 0))
    _metric(lines, "service_cancelled_total", "counter", "Specs cancelled before execution.")
    _sample(lines, "service_cancelled_total", data.get("cancelled", 0))

    _metric(
        lines,
        "service_shed_total",
        "counter",
        "Submissions shed (rejected or dropped) by admission control.",
    )
    _sample(lines, "service_shed_total", data.get("shed", 0))
    _metric(
        lines,
        "service_recovered_total",
        "counter",
        "Specs re-enqueued from the write-ahead journal by a resume.",
    )
    _sample(lines, "service_recovered_total", data.get("recovered", 0))
    _metric(
        lines,
        "watchdog_kills_total",
        "counter",
        "Hung workers SIGKILLed by the heartbeat watchdog.",
    )
    _sample(lines, "watchdog_kills_total", data.get("watchdog_kills", 0))
    _metric(
        lines,
        "breaker_rejected_total",
        "counter",
        "Submissions refused because their scheme's breaker was open.",
    )
    _sample(lines, "breaker_rejected_total", data.get("breaker_rejected", 0))
    _metric(
        lines,
        "breaker_state",
        "gauge",
        "Per-scheme circuit-breaker state (0=closed, 1=half-open, 2=open).",
    )
    breaker = data.get("breaker") or {}
    for scheme in sorted(breaker):
        state = breaker[scheme]
        encoded = {"closed": 0, "half-open": 1, "open": 2}.get(state, 0)
        _sample(lines, "breaker_state", encoded, scheme=scheme)
    _metric(
        lines,
        "service_cache_quarantined_total",
        "counter",
        "Corrupt result-cache entries quarantined by this service.",
    )
    _sample(
        lines, "service_cache_quarantined_total", data.get("cache_quarantined", 0)
    )
    _metric(
        lines,
        "service_cache_tmp_swept_total",
        "counter",
        "Stale result-cache tmp files swept at cache open.",
    )
    _sample(lines, "service_cache_tmp_swept_total", data.get("cache_tmp_swept", 0))
    _metric(
        lines,
        "service_shm_swept_total",
        "counter",
        "Orphaned trace shared-memory segments swept at scheduler start.",
    )
    _sample(lines, "service_shm_swept_total", data.get("shm_swept", 0))

    _metric(
        lines,
        "cluster_workers_connected",
        "gauge",
        "Live remote workers registered with the cluster coordinator.",
    )
    _sample(
        lines, "cluster_workers_connected", data.get("workers_connected", 0)
    )
    _metric(
        lines,
        "cluster_leases_active",
        "gauge",
        "Cells currently leased to remote workers.",
    )
    _sample(lines, "cluster_leases_active", data.get("leases_active", 0))
    _metric(
        lines,
        "cluster_redispatches_total",
        "counter",
        "Leases lost to worker death or hang and dispatched again.",
    )
    _sample(lines, "cluster_redispatches_total", data.get("redispatches", 0))

    # Span families appear only when a tracer is configured: an
    # untraced service's scrape stays byte-identical to pre-tracing
    # releases (and dashboards don't chart all-zero series).
    spans = data.get("spans") or {}
    span_phases = data.get("span_phases") or {}
    if spans:
        _metric(
            lines,
            "spans_total",
            "counter",
            "Request-path spans recorded by the tracer, by state.",
        )
        for state in ("started", "finished", "adopted", "dropped"):
            _sample(lines, "spans_total", spans.get(state, 0), state=state)
    if span_phases:
        _metric(
            lines,
            "span_seconds",
            "summary",
            "Request-path span durations per phase (batch/cell/queue/attempt/lease/execute).",
        )
        for phase in sorted(span_phases):
            q = span_phases[phase]
            for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                _sample(
                    lines,
                    "span_seconds",
                    q[key],
                    phase=phase,
                    quantile=quantile,
                )
            _sample(lines, "span_seconds_count", q["count"], phase=phase)
            _sample(lines, "span_seconds_sum", q["sum"], phase=phase)

    _metric(
        lines,
        "service_latency_seconds",
        "summary",
        "Submit-to-result latency per scheme (executed specs only).",
    )
    latency = data.get("latency") or {}
    for scheme in sorted(latency):
        q = latency[scheme]
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            _sample(
                lines,
                "service_latency_seconds",
                q[key],
                scheme=scheme,
                quantile=quantile,
            )
        _sample(lines, "service_latency_seconds_count", q["count"], scheme=scheme)
        _sample(lines, "service_latency_seconds_sum", q["sum"], scheme=scheme)
    return "\n".join(lines) + "\n"


def write_prometheus(report, stream: IO[str], per_cell: bool = True) -> None:
    stream.write(report_to_prometheus(report, per_cell=per_cell))
