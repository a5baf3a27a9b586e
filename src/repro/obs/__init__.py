"""``repro.obs`` — zero-cost-when-off observability for the whole stack.

Four layers, one package:

* **Interval telemetry** (:mod:`repro.obs.interval`) — per-core
  time-series of MPKI / CPI / spill rates / SSL state sampled every N
  committed instructions by the engine;
* **Event tracing** (:mod:`repro.obs.events`) — typed events (spill,
  swap, receive-flip, regrain, QoS throttle) in a bounded ring;
* **Pipeline profiling** (:mod:`repro.obs.metrics`) — one
  Prometheus-style exporter rendering the batch service's stats and its
  :class:`~repro.execution.report.RunReport` (per-cell timings, queue
  latency, worker utilization, result-cache hit rates) as one page;
* **Span tracing** (:mod:`repro.obs.spans`) — end-to-end request
  tracing for the batch/cluster tier: every submitted cell gets a span
  tree (queue wait, cache lookup, execution attempts, remote leases)
  whose context rides the wire so remote workers' execute spans stitch
  into the coordinator's trace.

Events and spans share one buffer, :class:`~repro.obs.ring.Ring`
(bounded, drop-counting, per-name counts, sorted-key JSONL export), and
every span record's core keys are spelled once, by
:class:`~repro.obs.spans.Span`.

The :class:`~repro.obs.observer.Observer` contract (and its
zero-overhead guarantee) is documented in :mod:`repro.obs.observer` and
DESIGN.md §10.
"""

from repro.obs.events import EventTracer, TraceEvent
from repro.obs.interval import IntervalRecorder, IntervalSample
from repro.obs.metrics import prometheus_text
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
    "prometheus_text",
]
