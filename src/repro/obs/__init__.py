"""``repro.obs`` — zero-cost-when-off observability for the whole stack.

Three layers, one package:

* **Interval telemetry** (:mod:`repro.obs.interval`) — per-core
  time-series of MPKI / CPI / spill rates / SSL state sampled every N
  committed instructions by the engine;
* **Event tracing** (:mod:`repro.obs.events`) — a bounded ring buffer of
  typed events (spill, swap, receive-flip, regrain, QoS throttle) with
  JSONL export;
* **Pipeline profiling** (:mod:`repro.obs.metrics`) — Prometheus-style
  text export of the experiment stack's
  :class:`~repro.execution.report.RunReport` (per-cell timings,
  queue latency, worker utilization, result-cache hit rates);
* **Span tracing** (:mod:`repro.obs.spans`) — end-to-end request
  tracing for the batch/cluster tier: every submitted cell gets a span
  tree (queue wait, cache lookup, execution attempts, remote leases)
  whose context rides the wire so remote workers' execute spans stitch
  into the coordinator's trace.

The :class:`~repro.obs.observer.Observer` contract (and its
zero-overhead guarantee) is documented in :mod:`repro.obs.observer` and
DESIGN.md §10.
"""

from repro.obs.events import EventTracer, TraceEvent
from repro.obs.interval import IntervalRecorder, IntervalSample
from repro.obs.metrics import report_to_prometheus, write_prometheus
from repro.obs.observer import CompositeObserver, Observer
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "CompositeObserver",
    "EventTracer",
    "IntervalRecorder",
    "IntervalSample",
    "Observer",
    "Span",
    "SpanTracer",
    "TraceEvent",
    "report_to_prometheus",
    "write_prometheus",
]
