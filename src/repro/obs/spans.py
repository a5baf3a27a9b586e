"""Request-path span tracing for the batch/cluster tier.

The simulator already has an observability layer (events, intervals);
this module covers the *service* request path instead: every submitted
cell produces a tree of spans

    cell -> attempt -> lease -> execute
         -> queue / cache / dedup

where ``cell`` is one submitted spec (a trace root unless the caller
sent an inbound context), ``attempt`` is one dispatch (local pool or
cluster lease),
``lease`` is the wire round-trip to a remote worker and ``execute`` is
the worker-side simulation, shipped home inside the result frame and
adopted by the coordinator so the whole tree shares one ``trace_id``.

Design rules (shared with :mod:`repro.obs.events`):

* **Zero cost when off.**  Nothing in the request path imports or
  touches this module unless a tracer was configured; every emission
  site is guarded by ``tracer is not None``.
* **Bounded memory.**  Finished spans live in a
  :class:`~repro.obs.ring.Ring`; overflow drops the oldest spans and
  counts them, it never raises or blocks the scheduler.
* **One record schema.**  :class:`Span` alone spells out the core
  record keys (:attr:`Span.CORE_KEYS`); live spans, adopted remote records
  and the worker-side :func:`completed_span` all go through it.
* **Monotonic durations, wall-clock anchors.**  Durations come from
  ``time.monotonic`` within one process; each span also records a
  ``time.time`` start so spans from different processes (coordinator
  and workers) can be ordered on one timeline.
* **Wire-friendly.**  A span context is the two-key mapping
  ``{"trace_id", "span_id"}``; it rides executor payloads and wire
  frames as an optional ``trace`` field and HTTP requests as the
  ``X-Repro-Trace: <trace_id>-<span_id>`` header.  Remote workers do
  not run a tracer of their own: they build completed span *records*
  (plain dicts) with :func:`completed_span` and return them in the
  result/error frame for the coordinator to :meth:`SpanTracer.adopt`.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from collections.abc import Mapping
from typing import Iterable, Optional, Union

from repro.obs.metrics import latency_quantiles
from repro.obs.ring import DEFAULT_CAPACITY, Ring

__all__ = [
    "Span",
    "SpanTracer",
    "completed_span",
    "format_summary",
    "format_trace_tree",
    "load_spans",
    "new_id",
    "phase_breakdown",
    "slowest_cells",
]

#: Attr keys promoted into the rendered tree / summary lines.
_DISPLAY_ATTRS = ("cell", "attempt", "worker", "lease", "executor", "source")


def new_id() -> str:
    """Return a 64-bit random identifier as 16 lowercase hex chars."""
    return os.urandom(8).hex()


class Span:
    """One timed operation in a trace.

    Live spans are created by :meth:`SpanTracer.begin` with a monotonic
    ``start``; adopted spans (completed remotely) carry only a
    ``duration``.  A span is mutable until finished; ``duration`` being
    set marks it finished and further ``finish`` calls are no-ops.
    """

    #: The keys every span record carries; any other record key is an attr.
    CORE_KEYS = ("trace_id", "span_id", "parent_id", "name", "wall", "duration", "status")
    __slots__ = CORE_KEYS + ("start", "attrs")

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        wall: float,
        start: Optional[float] = None,
        duration: Optional[float] = None,
        status: str = "ok",
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.wall = wall
        self.start = start
        self.duration = duration
        self.status = status
        self.attrs = dict(attrs) if attrs else {}

    def context(self) -> dict:
        """The wire-portable context: enough to parent a child span."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def to_dict(self) -> dict:
        record = {key: getattr(self, key) for key in self.CORE_KEYS}
        record["wall"] = round(self.wall, 6)
        record["duration"] = round(self.duration or 0.0, 6)
        record.update(self.attrs)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "live"
        return f"Span({self.name!r}, trace={self.trace_id}, {state})"


ParentLike = Union[Span, Mapping, None]


def _parent_ids(parent: ParentLike) -> tuple[Optional[str], Optional[str]]:
    """Normalise a parent (Span, context mapping or None) to ids."""
    if parent is None:
        return None, None
    if isinstance(parent, Span):
        return parent.trace_id, parent.span_id
    trace_id = parent.get("trace_id")
    span_id = parent.get("span_id")
    if trace_id is None:
        return None, None
    return str(trace_id), str(span_id) if span_id is not None else None


class SpanTracer(Ring):
    """Thread-safe collector of request-path spans.

    Finished spans accumulate in the bounded ring (oldest dropped
    first); live spans are owned by their call sites and only enter the
    ring on :meth:`finish`.  All methods are cheap and never raise on
    overflow.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)
        self.started = 0
        self.finished = 0
        self.adopted = 0

    @property
    def spans(self) -> deque:
        """The ring's deque of finished :class:`Span` objects."""
        return self.items

    # ------------------------------------------------------------- #
    # Span lifecycle
    # ------------------------------------------------------------- #

    def begin(
        self,
        name: str,
        parent: ParentLike = None,
        *,
        trace_id: Optional[str] = None,
        **attrs,
    ) -> Span:
        """Start a live span.

        ``parent`` may be a :class:`Span`, a wire context mapping or
        ``None``; with no parent (and no explicit ``trace_id``) the span
        roots a fresh trace.
        """
        parent_trace, parent_span = _parent_ids(parent)
        span = Span(
            name,
            trace_id=parent_trace or trace_id or new_id(),
            span_id=new_id(),
            parent_id=parent_span,
            wall=time.time(),
            start=time.monotonic(),
            attrs=attrs,
        )
        with self._lock:
            self.started += 1
        return span

    def finish(self, span: Span, status: Optional[str] = None, **attrs) -> None:
        """Finish a live span (idempotent: later calls are no-ops)."""
        if span.finished:
            return
        end = time.monotonic()
        span.duration = max(0.0, end - (span.start if span.start is not None else end))
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._record(span, finished=1)

    def complete(
        self,
        name: str,
        parent: ParentLike = None,
        *,
        duration: float = 0.0,
        status: str = "ok",
        wall: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Record an already-elapsed operation as a finished span.

        Used when the duration is known only in hindsight (e.g. queue
        wait, measured when the cell is handed to its executor).
        """
        parent_trace, parent_span = _parent_ids(parent)
        span = Span(
            name,
            trace_id=parent_trace or new_id(),
            span_id=new_id(),
            parent_id=parent_span,
            wall=time.time() if wall is None else wall,
            duration=max(0.0, float(duration)),
            status=status,
            attrs=attrs,
        )
        self._record(span, started=1, finished=1)
        return span

    def event(self, name: str, parent: ParentLike = None, **attrs) -> Span:
        """Record an instantaneous (zero-duration) span."""
        return self.complete(name, parent, duration=0.0, **attrs)

    def adopt(self, record: Mapping) -> Optional[Span]:
        """Ingest a completed span record produced by a remote peer.

        Trusts the record's ids (that is the whole point: the worker's
        ``execute`` span must stitch under the coordinator's lease
        span).  Malformed records are dropped, never raised.
        """
        try:
            name = str(record["name"])
            span = Span(
                name,
                trace_id=str(record.get("trace_id") or new_id()),
                span_id=str(record.get("span_id") or new_id()),
                parent_id=(
                    str(record["parent_id"]) if record.get("parent_id") is not None else None
                ),
                wall=float(record.get("wall") or 0.0),
                duration=max(0.0, float(record.get("duration") or 0.0)),
                status=str(record.get("status") or "ok"),
                attrs={key: value for key, value in record.items() if key not in Span.CORE_KEYS},
            )
        except (KeyError, TypeError, ValueError):
            return None
        self._record(span, adopted=1)
        return span

    def _record(self, span: Span, *, started: int = 0, finished: int = 0, adopted: int = 0) -> None:
        with self._lock:
            self.started += started
            self.finished += finished
            self.adopted += adopted
            self._append_locked(span)

    # ------------------------------------------------------------- #
    # Introspection
    # ------------------------------------------------------------- #

    def counters(self) -> dict:
        with self._lock:
            return {
                "started": self.started,
                "finished": self.finished,
                "adopted": self.adopted,
                "dropped": self.dropped,
            }

    def rollup(self, root_name: str = "cell") -> dict:
        """Sum span durations per phase under each ``root_name`` ancestor.

        Returns ``{root_span_id: {phase: seconds}}``.  Spans with no
        ``root_name`` ancestor in the ring (e.g. dedup events of a memory
        hit) are skipped.  Feeds the per-cell phase timings in RunReport v4.
        """
        spans = self.snapshot()
        by_id = {span.span_id: span for span in spans}
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            node: Optional[Span] = span
            hops = 0
            while node is not None and node.name != root_name and hops < 64:
                node = by_id.get(node.parent_id) if node.parent_id else None
                hops += 1
            if node is None or node.name != root_name:
                continue
            phases = out.setdefault(node.span_id, {})
            phases[span.name] = phases.get(span.name, 0.0) + (span.duration or 0.0)
        return out


# ----------------------------------------------------------------- #
# Remote-side record builder (workers run no tracer)
# ----------------------------------------------------------------- #


def completed_span(
    context: Optional[Mapping],
    name: str,
    *,
    wall: float,
    duration: float,
    status: str = "ok",
    **attrs,
) -> dict:
    """Build a completed span *record* parented under a wire context.

    Remote workers call this instead of running a tracer: the record
    rides home in the result/error frame and the coordinator adopts it,
    so the worker's span stitches into the coordinator's trace.
    """
    ctx = context if isinstance(context, Mapping) else {}
    return Span(
        name,
        trace_id=str(ctx.get("trace_id") or new_id()),
        span_id=new_id(),
        parent_id=str(ctx["span_id"]) if ctx.get("span_id") is not None else None,
        wall=float(wall),
        duration=max(0.0, float(duration)),
        status=status,
        attrs=attrs,
    ).to_dict()


# ----------------------------------------------------------------- #
# Offline analysis (the `repro spans` subcommand)
# ----------------------------------------------------------------- #


def load_spans(path) -> list[dict]:
    """Read a spans JSONL file; raises ValueError naming the bad line."""
    records = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from None
            if isinstance(record, dict) and "name" in record:
                records.append(record)
    return records


def phase_breakdown(durations: Iterable[tuple]) -> dict:
    """Per-phase duration quantiles over ``(name, duration)`` pairs.

    The one phase summary: ``/metrics`` feeds it the tracer's live
    spans, ``repro spans`` the records of a JSONL file.
    """
    samples: dict[str, list[float]] = {}
    for name, duration in durations:
        samples.setdefault(str(name), []).append(float(duration or 0.0))
    return {name: latency_quantiles(values) for name, values in sorted(samples.items())}


def slowest_cells(records: Iterable[Mapping], top: int = 10) -> list[dict]:
    """The ``top`` slowest cell spans, slowest first."""
    cells = [record for record in records if record.get("name") == "cell"]
    cells.sort(key=lambda record: float(record.get("duration") or 0.0), reverse=True)
    return cells[: max(0, top)]


def _describe(record: Mapping) -> str:
    parts = [str(record.get("name", "?"))]
    for key in _DISPLAY_ATTRS:
        if key in record:
            parts.append(f"{key}={record[key]}")
    parts.append(f"{float(record.get('duration') or 0.0):.3f}s")
    status = record.get("status", "ok")
    if status != "ok":
        parts.append(f"status={status}")
    return "  ".join(parts)


def format_summary(records: list, top: int = 10) -> str:
    """Human-readable per-phase breakdown plus the top-N slowest cells."""
    lines = [f"{len(records)} spans across {len({r.get('trace_id') for r in records})} traces", ""]
    lines.append("phase breakdown (seconds):")
    breakdown = phase_breakdown((r["name"], r.get("duration")) for r in records)
    width = max((len(name) for name in breakdown), default=5)
    lines.append(
        f"  {'phase'.ljust(width)}  {'count':>6}  {'p50':>9}  {'p90':>9}  {'p99':>9}  {'max':>9}  {'total':>10}"
    )
    for name, q in breakdown.items():
        lines.append(
            f"  {name.ljust(width)}  {q['count']:>6}  {q['p50']:>9.4f}  {q['p90']:>9.4f}"
            f"  {q['p99']:>9.4f}  {q['max']:>9.4f}  {q['sum']:>10.4f}"
        )
    cells = slowest_cells(records, top)
    if cells:
        lines.append("")
        lines.append(f"slowest cells (top {len(cells)}):")
        for record in cells:
            lines.append(f"  trace {record.get('trace_id')}  {_describe(record)}")
    return "\n".join(lines)


def format_trace_tree(records: list, trace_id: str) -> str:
    """Render one trace as an indented parent/child tree.

    Returns an empty string when the trace id matches no records.
    """
    members = [record for record in records if record.get("trace_id") == trace_id]
    if not members:
        return ""
    ids = {record.get("span_id") for record in members}
    children: dict[Optional[str], list] = {}
    for record in members:
        parent = record.get("parent_id")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda record: float(record.get("wall") or 0.0))

    lines = [f"trace {trace_id}:"]

    def render(parent_key: Optional[str], depth: int) -> None:
        for record in children.get(parent_key, ()):  # noqa: B023 - bound per call
            lines.append("  " * (depth + 1) + _describe(record))
            if record.get("span_id") in children:
                render(record.get("span_id"), depth + 1)

    render(None, 0)
    return "\n".join(lines)
