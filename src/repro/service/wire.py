"""One versioned message schema for every service front-end.

Before this module each front-end of the batch service spelled its
messages differently: ``serve_jsonl`` parsed its own request lines and
improvised error objects, ``BatchHTTPServer`` re-parsed specs and
invented a second error spelling, and adding the cluster tier would
have created a third.  :mod:`repro.service.wire` is the single place
where requests, results and errors are given shape:

* **Versioning** — every wire producer stamps
  :data:`PROTOCOL_VERSION`; consumers call :func:`check_protocol` and
  reject a mismatch with a *structured* ``protocol_mismatch`` error
  instead of a traceback, so a v2 client against a v1 server gets an
  actionable record, not a stack dump.
* **Requests** — :func:`parse_request` accepts both historical request
  spellings (a bare spec object, or ``{"spec": {...}, "priority": n,
  "id": ...}``) and returns one typed :class:`Request`.
* **Errors** — :func:`classify_error` maps every exception the service
  can surface (spec validation, closed scheduler, cancellation,
  exhausted retries, wire mismatch) onto the one
  :class:`ServiceError` taxonomy; front-ends render it with
  :func:`error_record` so the ``code`` vocabulary is identical over
  JSONL stdio, HTTP and the cluster TCP protocol.
* **Results** — :func:`result_record` is the shared success envelope
  (the :func:`~repro.api.session.result_summary` digest payload).
* **Framing** — :func:`write_frame` / :func:`read_frame` implement the
  length-prefixed JSONL framing the cluster protocol runs over TCP:
  one ASCII decimal byte-length line, then exactly that many bytes of
  one JSON object.  Length-prefixing makes partial reads detectable
  (a torn frame raises :class:`WireError` instead of desynchronising
  the stream) and keeps the payload human-debuggable with ``nc``.

Full :class:`~repro.sim.results.SystemResult` objects cross the cluster
wire via :func:`encode_result`/:func:`decode_result` (pickle + base64
inside the JSON frame).  That preserves bit-identity exactly — the
coordinator's digest of a remote result equals a local run's — at the
price of trusting the peer: the cluster protocol is for lab fleets on a
trusted network, exactly like the loopback-only HTTP front-end.
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import dataclass
from typing import IO, Mapping, Optional

from repro.api.spec import RunSpec, SpecError

#: Version stamped on every wire message (`v` on frames,
#: ``protocol_version`` in handshakes and request envelopes).  Bump on
#: any incompatible change to the record shapes below; peers reject a
#: mismatch with a structured ``protocol_mismatch`` error.  v2 (4.0.0):
#: the spec in request envelopes and lease payloads lost its per-request
#: SLA field, which a v1 peer still sends.  5.0.0 dropped two error
#: codes (the overload one and an unused lost-lease one) and the error
#: record's retry hint, but no request or frame shape: still 2.
PROTOCOL_VERSION = 2

#: The closed vocabulary of service error codes.  Every error record
#: any front-end emits carries exactly one of these.
ERROR_CODES = (
    "bad_request",        # malformed JSON / not a spec at all
    "spec_invalid",       # RunSpec.validate failed (SpecError)
    "protocol_mismatch",  # peer speaks a different PROTOCOL_VERSION
    "scheduler_closed",   # submitted after close()
    "cancelled",          # scheduler shut down before the spec ran
    "execution_failed",   # retries exhausted (JobFailed)
    "internal",           # anything unclassified
)

#: Hard ceiling on one frame's payload (64 MiB).  A length prefix past
#: this is treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: HTTP header carrying an inbound/outbound trace context as
#: ``<trace_id>-<span_id>`` (two hex strings).  See :func:`parse_trace`.
TRACE_HEADER = "X-Repro-Trace"


class WireError(ValueError):
    """A wire message violated the protocol (framing, shape or version)."""

    def __init__(self, message: str, *, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code if code in ERROR_CODES else "bad_request"


@dataclass(frozen=True)
class ServiceError:
    """One classified service error: taxonomy code + rendered message."""

    code: str
    message: str

    def record(self, **extra) -> dict:
        """The JSON error envelope every front-end emits."""
        record = {"ok": False, "code": self.code, "error": self.message}
        # Historical convenience flag, kept so existing consumers (and
        # the CI greps) survive the taxonomy unification.
        if self.code == "cancelled":
            record["cancelled"] = True
        record.update(extra)
        return record


def classify_error(exc: BaseException) -> ServiceError:
    """Map any exception the service can surface onto the taxonomy.

    Import-light and tolerant: unknown exception types classify as
    ``internal`` rather than raising, so an error path can never lose
    the original failure to a classification bug.
    """
    from concurrent.futures import CancelledError

    if isinstance(exc, WireError):
        return ServiceError(exc.code, str(exc))
    if isinstance(exc, SpecError):
        return ServiceError("spec_invalid", str(exc))
    if isinstance(exc, CancelledError):
        return ServiceError(
            "cancelled", "cancelled: scheduler shut down before this spec ran"
        )
    # Late imports keep a serve front-end importable without the
    # scheduler module (and avoid an import cycle with it).
    try:
        from repro.service.scheduler import JobFailed, SchedulerClosed
    except ImportError:  # pragma: no cover - partial install
        JobFailed = SchedulerClosed = ()  # type: ignore[assignment]
    if isinstance(exc, SchedulerClosed):
        return ServiceError("scheduler_closed", str(exc))
    if isinstance(exc, JobFailed):
        return ServiceError("execution_failed", str(exc))
    if isinstance(exc, (ValueError, TypeError)):
        return ServiceError("bad_request", str(exc))
    return ServiceError("internal", f"{type(exc).__name__}: {exc}")


def error_record(exc: BaseException, **extra) -> dict:
    """Classify ``exc`` and render the shared error envelope."""
    return classify_error(exc).record(**extra)


def result_record(result, **extra) -> dict:
    """The shared success envelope: ``{"ok": true, ...summary}``."""
    from repro.api.session import result_summary

    record = {"ok": True, **result_summary(result)}
    record.update(extra)
    return record


def stats_record(stats, **extra) -> dict:
    """The shared stats/health envelope: ``{"ok": true, ...to_dict()}``.

    Consumes the versioned :meth:`ServiceStats.to_dict` schema so
    ``/healthz``, JSONL consumers and any future stats frame all emit
    the same record (duck typed: any object with ``to_dict()`` works).
    """
    payload = stats.to_dict() if hasattr(stats, "to_dict") else dict(vars(stats))
    record = {"ok": True, **payload}
    record.update(extra)
    return record


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    """One typed submission request, whatever front-end it arrived on.

    ``trace`` is the caller's span context (``{"trace_id", "span_id"}``)
    when the request arrived with one — the submitted cell's span roots
    under it instead of starting a fresh trace.  ``None`` when absent,
    which every pre-tracing peer is.
    """

    id: object
    spec: RunSpec
    priority: int = 0
    trace: Optional[dict] = None


def check_protocol(obj: Mapping, *, where: str = "request") -> None:
    """Reject a mismatched ``protocol_version`` with a structured error.

    Absent means "whatever you speak" (bare spec objects predate the
    version field and stay accepted); present-but-different raises a
    :class:`WireError` carrying the ``protocol_mismatch`` code.
    """
    version = obj.get("protocol_version")
    if version is None:
        return
    if version != PROTOCOL_VERSION:
        raise WireError(
            f"{where}: protocol_version {version!r} not supported; "
            f"this service speaks {PROTOCOL_VERSION}",
            code="protocol_mismatch",
        )


def check_trace(obj: Mapping) -> Optional[dict]:
    """Validate an optional ``trace`` context on a request envelope.

    The field is additive under :data:`PROTOCOL_VERSION` 1: absent (or
    ``None``) means no trace and is what every pre-tracing peer sends,
    so it never rejects old clients.  Present, it must be a
    ``{"trace_id": str, "span_id": str}`` object; anything else raises
    :class:`WireError` rather than silently breaking stitching.
    """
    trace = obj.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, Mapping) or not trace.get("trace_id"):
        raise WireError(
            f"trace must be an object with trace_id/span_id, got {trace!r}"
        )
    context = {"trace_id": str(trace["trace_id"])}
    if trace.get("span_id") is not None:
        context["span_id"] = str(trace["span_id"])
    return context


def format_trace(context: Optional[Mapping]) -> Optional[str]:
    """Render a span context as the :data:`TRACE_HEADER` value."""
    if not context or not context.get("trace_id"):
        return None
    return f"{context['trace_id']}-{context.get('span_id', '')}".rstrip("-")


def parse_trace(text: Optional[str]) -> Optional[dict]:
    """Parse a :data:`TRACE_HEADER` value back into a span context.

    ``None``/blank means no trace.  A malformed value raises
    :class:`WireError` so the HTTP front-end returns a structured 400
    instead of dropping the caller's context on the floor.
    """
    if text is None or not text.strip():
        return None
    parts = text.strip().split("-")
    if not all(_is_hex_id(part) for part in parts) or len(parts) > 2:
        raise WireError(
            f"{TRACE_HEADER} must be '<trace_id>' or '<trace_id>-<span_id>' "
            f"(hex ids), got {text!r}"
        )
    context = {"trace_id": parts[0]}
    if len(parts) == 2:
        context["span_id"] = parts[1]
    return context


def _is_hex_id(text: str) -> bool:
    return bool(text) and all(c in "0123456789abcdefABCDEF" for c in text)


def parse_request(obj: object, default_id: object = None) -> Request:
    """One typed :class:`Request` from any historical request spelling.

    Accepts a bare spec object or an envelope ``{"spec": {...},
    "priority": n, "id": ..., "trace": {...},
    "protocol_version": v}``.  The spec is validated here, so every
    front-end rejects the same boundary values with the same message.
    Raises :class:`WireError` (shape or version) or
    :class:`~repro.api.spec.SpecError`.
    """
    if not isinstance(obj, Mapping):
        raise WireError(
            f"expected a JSON object (a spec, or {{'spec': ...}}), "
            f"got {type(obj).__name__}"
        )
    check_protocol(obj)
    if "spec" in obj:
        spec = RunSpec.from_dict(obj["spec"])
        try:
            priority = int(obj.get("priority", 0))
        except (TypeError, ValueError):
            raise WireError(
                f"priority must be an integer, got {obj.get('priority')!r}"
            ) from None
        req_id = obj.get("id", default_id)
        trace = check_trace(obj)
    else:
        body = {k: v for k, v in obj.items() if k != "protocol_version"}
        spec = RunSpec.from_dict(body)
        priority, req_id, trace = 0, default_id, None
    return Request(req_id, spec.validate(), priority, trace)


# --------------------------------------------------------------------- #
# Cluster frames
# --------------------------------------------------------------------- #

#: Message types the cluster protocol exchanges.  Worker -> coordinator:
#: ``hello`` (registration + capability handshake), ``heartbeat``,
#: ``result``, ``error``, ``goodbye``.  Coordinator -> worker:
#: ``welcome``, ``reject``, ``lease``, ``shutdown``.
CLUSTER_MESSAGE_TYPES = (
    "hello",
    "welcome",
    "reject",
    "heartbeat",
    "lease",
    "result",
    "error",
    "goodbye",
    "shutdown",
)

#: Seconds between a cluster lane's ``heartbeat`` frames.
HEARTBEAT_INTERVAL = 0.2

#: Seconds a worker holding leases may go without sending a frame before
#: the coordinator presumes it frozen and expels it (``worker-hung``).
#: A lane heartbeats from its own thread while it simulates, so only a
#: stopped or partitioned lane goes this quiet.
STALE_AFTER = 50 * HEARTBEAT_INTERVAL


def make_frame(type: str, **fields) -> dict:  # noqa: A002 - wire key name
    """A cluster message: version-stamped, typed, JSON-ready."""
    if type not in CLUSTER_MESSAGE_TYPES:
        raise WireError(f"unknown cluster message type {type!r}")
    return {"v": PROTOCOL_VERSION, "type": type, **fields}


def write_frame(stream: IO[bytes], obj: Mapping) -> None:
    """Write one length-prefixed JSON frame and flush it.

    The frame is ``b"<decimal length>\\n<payload>"`` where the payload
    is one compact JSON object — JSONL with an explicit byte count, so
    the reader never has to guess where a message ends.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    stream.write(b"%d\n%s" % (len(payload), payload))
    stream.flush()


def read_frame(stream: IO[bytes]) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`WireError` on a torn or corrupt frame (truncated
    payload, non-numeric prefix, absurd length, invalid JSON) — the
    stream is unrecoverable past that point and the caller should drop
    the connection.
    """
    header = stream.readline()
    if not header:
        return None  # clean EOF between frames
    try:
        length = int(header)
    except ValueError:
        raise WireError(f"bad frame length prefix {header[:32]!r}") from None
    if not 0 <= length <= MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} out of range")
    payload = stream.read(length)
    if len(payload) != length:
        raise WireError(
            f"torn frame: expected {length} bytes, got {len(payload)} (peer died?)"
        )
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError(f"frame payload must be a JSON object, got {type(obj).__name__}")
    return obj


def check_frame(obj: Mapping, *, expect: Optional[str] = None) -> dict:
    """Validate a received frame's version and (optionally) its type."""
    check_protocol(
        {"protocol_version": obj.get("v")}
        if "v" in obj
        else {"protocol_version": obj.get("protocol_version")},
        where="frame",
    )
    kind = obj.get("type")
    if kind not in CLUSTER_MESSAGE_TYPES:
        raise WireError(f"unknown cluster message type {kind!r}")
    if expect is not None and kind != expect:
        raise WireError(f"expected a {expect!r} frame, got {kind!r}")
    return dict(obj)


# --------------------------------------------------------------------- #
# Result transport
# --------------------------------------------------------------------- #


def encode_result(result) -> str:
    """A :class:`SystemResult` as a JSON-safe string (pickle + base64)."""
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_result(text: str):
    """Inverse of :func:`encode_result`; trusted-peer use only."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:  # noqa: BLE001 - one failure surface
        raise WireError(f"undecodable result payload: {exc}") from None
