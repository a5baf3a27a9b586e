"""Prometheus-style text export for the batch service.

:func:`prometheus_text` renders one scrape page in the Prometheus text
exposition format (``# HELP`` / ``# TYPE`` comments plus
``name{labels} value`` lines): the service's
:class:`~repro.service.scheduler.ServiceStats`, read through its
versioned ``to_dict()`` record, followed by the run's
:class:`~repro.execution.report.RunReport`.  The scheduler's
``--metrics`` file and serve's ``GET /metrics`` are its two surfaces, so
a cron-driven campaign can drop a ``.prom`` file for a node-exporter
textfile collector — or a human can grep one run's utilization without
parsing JSON.

Only the stdlib is used; nothing here talks to a network.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Iterable, Iterator

_PREFIX = "repro"

# A metric family is ``(name, type, help, samples)``; a sample is
# ``(name suffix, labels, value)``.  The page is the service families
# followed by the report families, each rendered the same way.

#: ``(family, type, help, key)`` rows of unlabelled samples, in page
#: order.  Service rows read the stats record.
_SERVICE = (
    ("service_queue_depth", "gauge", "Specs queued, not yet executing.", "queue_depth"),
    ("service_inflight", "gauge", "Specs currently executing.", "inflight"),
    ("service_submitted_total", "counter", "Specs submitted to the service.", "submitted"),
    ("service_dedup_hits_total", "counter",
     "Submissions that joined an identical pending or in-flight spec.", "dedup_hits"),
    ("service_cache_hits_total", "counter",
     "Submissions satisfied from memory or the disk result cache.", "cache_hits"),
    ("service_executed_total", "counter", "Specs actually simulated.", "executed"),
    ("service_failed_total", "counter", "Specs that exhausted retries.", "failed"),
    ("service_cancelled_total", "counter", "Specs cancelled before execution.", "cancelled"),
    ("service_recovered_total", "counter",
     "Specs re-enqueued from the write-ahead journal by a resume.", "recovered"),
    ("service_cache_tmp_swept_total", "counter",
     "Stale result-cache tmp files swept at cache open.", "cache_tmp_swept"),
    ("cluster_workers_connected", "gauge",
     "Live remote workers registered with the cluster coordinator.", "workers_connected"),
    ("cluster_leases_active", "gauge",
     "Cells currently leased to remote workers.", "leases_active"),
    ("cluster_redispatches_total", "counter",
     "Leases lost to worker death or hang and dispatched again.", "redispatches"),
)
#: Report rows read :class:`RunReport` attributes; the cache lookups
#: (hit/miss) sit between the two report tables.
_RUN = (
    ("run_attempts_total", "counter", "Simulation attempts charged.", "total_attempts"),
    ("run_retries_total", "counter", "Attempts that were retries.", "retried"),
    ("run_timeouts_total", "counter", "Cells killed by the per-cell timeout.", "timeouts"),
    ("run_pool_deaths_total", "counter",
     "Worker-pool respawns after hard deaths.", "pool_deaths"),
    ("run_degraded_serial", "gauge", "1 if the sweep finished in-process.", "degraded_serial"),
    ("run_interrupted", "gauge", "1 if the sweep was interrupted.", "interrupted"),
    ("run_wall_seconds", "gauge", "Wall-clock duration of the sweep.", "elapsed"),
    ("run_busy_seconds", "gauge", "Summed simulation time across workers.", "busy_seconds"),
    ("run_queue_seconds", "gauge",
     "Summed cell queue latency (ready to submitted).", "queue_seconds"),
    ("run_worker_utilization", "gauge",
     "busy_seconds / (wall * workers).", "worker_utilization"),
)
_RESULT_CACHE = (
    ("result_cache_quarantined_total", "counter",
     "Corrupt cache entries quarantined.", "cache_quarantined"),
    ("result_cache_hit_ratio", "gauge", "Disk-cache hit ratio for this run.", "cache_hit_ratio"),
)
#: ``(family, help, CellRecord attribute)`` of the per-cell gauges.
_CELLS = (
    ("cell_seconds", "Simulation wall time per cell.", "duration"),
    ("cell_queue_seconds", "Queue latency per cell.", "queue_seconds"),
    ("cell_attempts", "Attempts charged per cell.", "attempts"),
)


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


def _labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{escape_label_value(str(val))}"' for key, val in labels.items())
    return "{" + inner + "}"


def _format(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summary(table: dict, label: str) -> list:
    """Samples of a summary family: p50/p90/p99, count and sum per key."""
    samples = []
    for key in sorted(table):
        q = table[key]
        for quantile, stat in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            samples.append(("", {label: key, "quantile": quantile}, q[stat]))
        samples.append(("_count", {label: key}, q["count"]))
        samples.append(("_sum", {label: key}, q["sum"]))
    return samples


def _scalars(table: tuple, value_of) -> Iterator[tuple]:
    for name, kind, help_text, key in table:
        yield name, kind, help_text, [("", {}, value_of(key))]


def _service_families(data: dict) -> Iterator[tuple]:
    yield from _scalars(_SERVICE, data.__getitem__)
    # Span families appear only when a tracer is configured: an
    # untraced service's scrape stays byte-identical to pre-tracing
    # releases (and dashboards don't chart all-zero series).
    spans = data["spans"]
    if spans:
        yield (
            "spans_total",
            "counter",
            "Request-path spans recorded by the tracer, by state.",
            [
                ("", {"state": state}, spans.get(state, 0))
                for state in ("started", "finished", "adopted", "dropped")
            ],
        )
    if data["span_phases"]:
        yield (
            "span_seconds",
            "summary",
            "Request-path span durations per phase "
            "(http/cell/queue/cache/attempt/lease/execute).",
            _summary(data["span_phases"], "phase"),
        )
    yield (
        "service_latency_seconds",
        "summary",
        "Submit-to-result latency per scheme (executed specs only).",
        _summary(data["latency"], "scheme"),
    )


def _report_families(report, per_cell: bool) -> Iterator[tuple]:
    counts = report.counts
    yield "run_cells", "gauge", "Cells in the sweep, by outcome source.", [
        ("", {"outcome": outcome}, counts[outcome])
        for outcome in ("total", "cache", "simulated", "failed", "pending")
    ]
    yield from _scalars(_RUN, partial(getattr, report))
    yield "result_cache_lookups_total", "counter", "Disk result-cache lookups, by result.", [
        ("", {"result": "hit"}, report.cache_hits),
        ("", {"result": "miss"}, report.cache_misses),
    ]
    yield from _scalars(_RESULT_CACHE, partial(getattr, report))
    if per_cell and report.records:
        from repro.execution.report import cell_name, cell_parts

        cells = []
        for rec in report.records.values():
            codes, scheme = cell_parts(rec.cell)
            mix = "+".join(str(c) for c in codes)
            labels = {"cell": cell_name(rec.cell), "mix": mix, "scheme": scheme}
            cells.append((rec, labels))
        for name, help_text, attr in _CELLS:
            samples = [("", labels, getattr(rec, attr)) for rec, labels in cells]
            yield name, "gauge", help_text, samples


def prometheus_text(stats, report, per_cell: bool = True) -> str:
    """Render a service-stats snapshot and its run report as one page.

    ``stats`` is a :class:`~repro.service.scheduler.ServiceStats` (any
    object with the same ``to_dict()`` record works) and ``report`` a
    :class:`~repro.execution.report.RunReport`.  ``per_cell=False``
    drops the per-cell series (a huge sweep would make the scrape page
    unwieldy); the run-level metrics are always present.
    """
    lines = []
    for name, kind, help_text, samples in chain(
        _service_families(stats.to_dict()), _report_families(report, per_cell)
    ):
        lines.append(f"# HELP {_PREFIX}_{name} {escape_help(help_text)}")
        lines.append(f"# TYPE {_PREFIX}_{name} {kind}")
        for suffix, labels, value in samples:
            lines.append(f"{_PREFIX}_{name}{suffix}{_labels(labels)} {_format(value)}")
    return "\n".join(lines) + "\n"


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
