"""The traced round: layer wrappers, a ``SpanTracer`` and per-layer metrics.

Counts come from what the program already reports after the run:
``SystemResult`` cores and traffic, ``TraceCache.stats``,
``ServiceStats.to_dict()`` and the ``RunReport``.  Times come from the
wrappers in :mod:`layers` and from the scheduler's spans.
"""

from __future__ import annotations

import statistics
import time

import layers

#: (name, unit) of every per-layer metric a ``--trace 1`` run prints.
PER_LAYER = (
    ("trace.gen_s", "s"),
    ("trace.records_generated", "count"),
    ("trace.gen_ns_per_record", "ns"),
    ("trace.lookup_s", "s"),
    ("trace.memo_hits", "count"),
    ("trace.materialized", "count"),
    ("trace.memo_records", "count"),
    ("engine.self_s", "s"),
    ("engine.records", "count"),
    ("engine.ns_per_record", "ns"),
    ("l1.hit_ratio", "ratio"),
    ("l2.self_s", "s"),
    ("l2.accesses", "count"),
    ("l2.ns_per_access", "ns"),
    ("l2.local_hit_ratio", "ratio"),
    ("l2.remote_hits", "count"),
    ("l2.memory_fetches", "count"),
    ("l2array.self_s", "s"),
    ("l2array.calls", "count"),
    ("directory.self_s", "s"),
    ("directory.calls", "count"),
    ("coherence.invalidations", "count"),
    ("coherence.writebacks", "count"),
    ("policy.self_s", "s"),
    ("policy.calls", "count"),
    ("policy.spills", "count"),
    ("policy.swaps", "count"),
    ("policy.spill_useful_ratio", "ratio"),
    ("session.self_s", "s"),
    ("queue.wait_ms_p50", "ms"),
    ("scheduler.cache_s", "s"),
    ("scheduler.journal_s", "s"),
    ("scheduler.trace_prep_s", "s"),
    ("scheduler.dedup_hits", "count"),
    ("scheduler.cache_hits", "count"),
    ("dispatch.self_s", "s"),
    ("dispatch.attempts", "count"),
    ("dispatch.retried", "count"),
    ("dispatch.useful_ratio", "ratio"),
    ("lease.overhead_ms_p50", "ms"),
    ("execute.ms_p50", "ms"),
    ("cluster.redispatches", "count"),
    ("tracing.overhead_frac", "ratio"),
)

#: Layers whose self time the ledger measures, in report order.
TIMED_LAYERS = ("trace", "engine", "l2", "l2array", "directory", "policy", "scheduler")


def attach(rnd) -> None:
    """Install the wrappers and a tracer; time the round's phases."""
    from repro.api import SpanTracer

    rnd.ledger = layers.Ledger()
    layers.install(rnd.ledger)
    rnd.tracer = SpanTracer()
    marks = {}

    def begin() -> None:
        from repro.workloads.trace_cache import get_trace_cache

        marks["totals"] = rnd.ledger.totals()
        marks["trace_stats"] = dict(get_trace_cache().stats)
        marks["wall"] = time.perf_counter()

    def end() -> None:
        from repro.workloads.trace_cache import get_trace_cache

        rnd.wall_s = time.perf_counter() - marks["wall"]
        rnd.totals = _delta(rnd.ledger.totals(), marks["totals"])
        stats = get_trace_cache().stats
        rnd.trace_stats = {key: stats[key] - marks["trace_stats"].get(key, 0) for key in stats}
        if "cold" in marks:
            cold = _delta(marks["cold"], marks["totals"])
            rnd.extra["cold_gen_s"] = _method(cold, "self_s", "MaterializedTrace.ensure")

    def mark(phase: str) -> None:
        marks[phase] = rnd.ledger.totals()

    rnd.begin, rnd.mark, rnd.end = begin, mark, end


def _delta(after: dict, before: dict) -> dict:
    return {
        table: {key: value - before[table].get(key, 0) for key, value in values.items()}
        for table, values in after.items()
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_self(totals: dict) -> dict:
    """Self seconds per layer from per-method self seconds."""
    out = dict.fromkeys(TIMED_LAYERS, 0.0)
    for key, seconds in totals["self_s"].items():
        out[key.split(":", 1)[0]] += seconds
    return out


def _method(totals: dict, table: str, *names: str) -> float:
    values = totals[table]
    return sum(value for key, value in values.items() if key.split(":", 1)[1] in names)


def _calls(totals: dict, layer: str) -> int:
    return sum(n for key, n in totals["calls"].items() if key.split(":", 1)[0] == layer)


def covered(spans) -> float:
    """Seconds covered by the union of the spans' wall-clock intervals."""
    total, end = 0.0, float("-inf")
    for start, stop in sorted((s.wall, s.wall + (s.duration or 0.0)) for s in spans):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def span_metrics(tracer, report, stats, engine_incl_s: float) -> dict:
    """Service-layer metrics from the tracer's finished spans."""
    spans = list(tracer.spans) if tracer is not None else []
    children: dict = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    def child_time(span, name=None) -> float:
        return sum(
            c.duration or 0.0
            for c in children.get(span.span_id, ())
            if name is None or c.name == name
        )

    attempts = [s for s in spans if s.name == "attempt"]
    leases = [s for s in spans if s.name == "lease"]
    stats_dict = stats.to_dict() if stats is not None else {}
    executed = stats_dict.get("executed", 0)
    # Local attempts run their cell in-process (so Engine.run time is
    # the simulator's, not dispatch work) and overlap one another, so
    # self time is taken over the union of intervals.
    dispatch_self = max(0.0, covered(attempts) - covered(leases) - engine_incl_s)
    return {
        "queue.wait_ms_p50": _median((s.duration or 0.0) * 1e3 for s in spans if s.name == "queue"),
        "scheduler.dedup_hits": stats_dict.get("dedup_hits", 0),
        "scheduler.cache_hits": stats_dict.get("cache_hits", 0),
        "dispatch.self_s": dispatch_self,
        "dispatch.attempts": len(attempts),
        "dispatch.retried": report.retried if report is not None else 0,
        "dispatch.useful_ratio": _ratio(executed, len(attempts)),
        "lease.overhead_ms_p50": _median(
            ((s.duration or 0.0) - child_time(s, "execute")) * 1e3 for s in leases
        ),
        "execute.ms_p50": _median((s.duration or 0.0) * 1e3 for s in spans if s.name == "execute"),
        "cluster.redispatches": stats_dict.get("redispatches", 0),
    }


def layer_metrics(rnd) -> dict:
    """Every per-layer metric of the traced round (0 where a layer is idle)."""
    totals = rnd.totals
    self_s = layer_self(totals)
    counts = totals["counts"]
    results = rnd.results
    traffic = {
        name: sum(getattr(r.traffic, name) for r in results)
        for name in ("local_hits", "remote_hits", "memory_fetches", "invalidations", "writebacks", "spills", "swaps")
    }
    spills_out = sum(c.spills_out for r in results for c in r.cores)
    hits_on_spilled = sum(c.hits_on_spilled for r in results for c in r.cores)

    gen_s = _method(totals, "self_s", "MaterializedTrace.ensure")
    records = counts.get("trace:MaterializedTrace.ensure.records", 0)
    buffers = rnd.ledger.last.get("trace:MaterializedTrace.ensure", {})
    l1_hits = counts.get("engine:Engine.run.l1_hits", 0)
    l1_records = l1_hits + counts.get("engine:Engine.run.l1_misses", 0)
    l2_accesses = _method(totals, "calls", "PrivateHierarchy.access", "SharedHierarchy.access")
    l2_lookups = traffic["local_hits"] + traffic["remote_hits"] + traffic["memory_fetches"]
    unwrapped = rnd.wall_s - sum(self_s.values())
    engine_incl = _method(totals, "incl_s", "Engine.run")

    metrics = {
        "trace.gen_s": gen_s,
        "trace.records_generated": records,
        "trace.gen_ns_per_record": _ratio(gen_s * 1e9, records),
        "trace.lookup_s": _method(totals, "self_s", "TraceCache.get"),
        "trace.memo_hits": rnd.trace_stats.get("memo_hits", 0),
        "trace.materialized": rnd.trace_stats.get("materialized", 0),
        "trace.memo_records": sum(reading["records"] for reading in buffers.values()),
        "engine.self_s": self_s["engine"],
        "engine.records": l1_records,
        "engine.ns_per_record": _ratio(self_s["engine"] * 1e9, l1_records),
        "l1.hit_ratio": _ratio(l1_hits, l1_records),
        "l2.self_s": self_s["l2"],
        "l2.accesses": l2_accesses,
        "l2.ns_per_access": _ratio(self_s["l2"] * 1e9, l2_accesses),
        "l2.local_hit_ratio": _ratio(traffic["local_hits"], l2_lookups),
        "l2.remote_hits": traffic["remote_hits"],
        "l2.memory_fetches": traffic["memory_fetches"],
        "l2array.self_s": self_s["l2array"],
        "l2array.calls": _calls(totals, "l2array"),
        "directory.self_s": self_s["directory"],
        "directory.calls": _calls(totals, "directory"),
        "coherence.invalidations": traffic["invalidations"],
        "coherence.writebacks": traffic["writebacks"],
        "policy.self_s": self_s["policy"],
        "policy.calls": _calls(totals, "policy"),
        "policy.spills": traffic["spills"],
        "policy.swaps": traffic["swaps"],
        "policy.spill_useful_ratio": _ratio(hits_on_spilled, spills_out),
        "session.self_s": unwrapped,
        "scheduler.cache_s": _method(totals, "incl_s", "ResultCache.get", "ResultCache.put"),
        "scheduler.journal_s": _method(totals, "incl_s", "BatchJournal.append", "BatchJournal.flush"),
        "scheduler.trace_prep_s": _method(totals, "incl_s", "TraceCache.materialize_for_run"),
    }
    metrics.update(span_metrics(rnd.tracer, rnd.service[1], rnd.service[0], engine_incl))
    rnd.extra["ledger"] = {
        "wall_s": rnd.wall_s,
        "self_s": self_s,
        "unwrapped_s": unwrapped,
        "cold_gen_s": rnd.extra.get("cold_gen_s"),
    }
    return metrics
