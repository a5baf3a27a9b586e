"""Front-ends for the batch service: JSONL-over-stdio and localhost HTTP.

Two ways to feed a running :class:`BatchScheduler` from outside the
process, both stdlib-only:

* :func:`serve_jsonl` — read one JSON object per line from a stream
  (``repro serve`` wires stdin), submit each as a :class:`RunSpec`, and
  write one JSON result line per completion *in completion order*.
  Lines may carry ``{"spec": {...}, "priority": n, "id": ...}`` or be a
  bare spec object; the ``id`` (default: input line number) is echoed in
  the output so callers can correlate out-of-order completions.
* :func:`serve_http` — a ``ThreadingHTTPServer`` bound to localhost
  with ``POST /batch`` (JSON array of specs in, JSON array of summaries
  out, submission order), ``GET /metrics`` (Prometheus text) and
  ``GET /healthz``.  Loopback-only by design: this is a lab-bench batch
  port, not a product server — there is no auth story here.

Result payloads use :func:`repro.api.session.result_summary`, so the
digest field is the same SHA-256 the golden tests pin — a client can
verify bit-identity against a serial run without pickles.

Both front-ends speak the shared schema in :mod:`repro.service.wire`:
requests parse through :func:`~repro.service.wire.parse_request` (so a
mismatched ``protocol_version`` is a structured error, never a
traceback) and every failure renders through the one
:class:`~repro.service.wire.ServiceError` taxonomy — the ``code``
vocabulary here is identical to the cluster protocol's.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import CancelledError, Future, wait
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Optional

from repro.api.spec import RunSpec, SpecError
from repro.obs.metrics import prometheus_text
from repro.service import wire
from repro.service.durability import AdmissionRejected
from repro.service.scheduler import BatchScheduler, SchedulerClosed


def _parse_line(line: str, lineno: int) -> wire.Request:
    """One typed :class:`~repro.service.wire.Request` from a JSONL line."""
    return wire.parse_request(json.loads(line), default_id=lineno)


def serve_jsonl(
    scheduler: BatchScheduler,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
    stderr: Optional[IO[str]] = None,
) -> int:
    """Drive the scheduler from a JSONL stream; returns an exit code.

    Output lines are ``{"id", "ok", ...summary}`` on success and
    ``{"id", "ok": false, "error"}`` on failure, flushed per completion
    so a pipe consumer sees results as they land.  Malformed input lines
    are reported on stderr and counted in the exit code, but do not
    abort the stream — a typo in request 400 must not waste 399 queued
    simulations.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    write_lock = threading.Lock()
    bad_input = 0
    failures = 0

    def emit(obj: dict) -> None:
        with write_lock:
            stdout.write(json.dumps(obj, sort_keys=True) + "\n")
            stdout.flush()

    def on_done(req_id: object, spec: RunSpec, future: Future) -> None:
        nonlocal failures
        try:
            result = future.result()
        except BaseException as exc:  # noqa: BLE001 - rendered per request
            # BaseException on purpose: CancelledError stopped being an
            # Exception in Python 3.8, and a silently dropped completion
            # means a request line that never gets its output line.  The
            # taxonomy maps it to ``code: cancelled``.
            failures += 1
            emit(wire.error_record(exc, id=req_id, spec=spec.name))
        else:
            emit(wire.result_record(result, id=req_id))

    pending: list[Future] = []
    for lineno, line in enumerate(stdin, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            request = _parse_line(line, lineno)
        except (ValueError, SpecError) as exc:
            # Covers malformed JSON, bad shapes, invalid specs *and*
            # protocol_version mismatches (WireError is a ValueError) —
            # each reported with its taxonomy code, never a traceback.
            bad_input += 1
            code = wire.classify_error(exc).code
            print(
                f"repro serve: skipping line {lineno} ({code}): {exc}", file=stderr
            )
            continue
        req_id, spec = request.id, request.spec
        try:
            future = scheduler.submit(
                spec, priority=request.priority, trace=request.trace
            )
        except AdmissionRejected as exc:
            # Shed per request, never per stream: one refused submission
            # must not abort the remaining lines.
            failures += 1
            emit(wire.error_record(exc, id=req_id, spec=spec.name))
            continue
        except SchedulerClosed as exc:
            failures += 1
            emit(wire.error_record(exc, id=req_id, spec=spec.name))
            break
        future.add_done_callback(
            lambda fut, req_id=req_id, spec=spec: on_done(req_id, spec, fut)
        )
        pending.append(future)

    wait(pending)
    return 1 if (bad_input or failures) else 0


# --------------------------------------------------------------------- #
# HTTP front-end
# --------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one scheduler via the server instance."""

    server_version = "repro-batch/1"

    @property
    def scheduler(self) -> BatchScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        stream = getattr(self.server, "log_stream", None)
        if stream is not None:
            print(f"{self.address_string()} - {format % args}", file=stream)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: object,
        retry_after: Optional[float] = None,
        headers: Optional[dict] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(round(retry_after)))))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, wire.stats_record(self.scheduler.stats()))
        elif self.path == "/metrics":
            text = prometheus_text(
                self.scheduler.stats(), self.scheduler.report, per_cell=False
            )
            self._send(200, text.encode(), "text/plain; version=0.0.4")
        else:
            self._send_json(404, {"ok": False, "error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/batch":
            self._send_json(404, {"ok": False, "error": f"no route {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"null")
            if isinstance(payload, dict):
                payload = [payload]
            if not isinstance(payload, list):
                raise wire.WireError("expected a JSON array of spec objects")
            requests = [
                wire.parse_request(item, default_id=index)
                for index, item in enumerate(payload)
            ]
            inbound = wire.parse_trace(self.headers.get(wire.TRACE_HEADER))
        except (ValueError, SpecError, TypeError) as exc:
            # One structured 400 for everything malformed — bad JSON,
            # invalid specs, mismatched protocol_version, a torn trace
            # header — with its taxonomy code, never a traceback.
            self._send_json(400, wire.error_record(exc))
            return
        # With tracing on, the whole POST gets an "http" span (rooted
        # under an inbound X-Repro-Trace context, if any) and the cells
        # parent under it; the context is echoed back in the response
        # header either way so callers can stitch across hops.
        tracer = getattr(self.scheduler, "tracer", None)
        http_span = None
        if tracer is not None:
            http_span = tracer.begin(
                "http", inbound, path=self.path, specs=len(requests)
            )
            context = http_span.context()
        else:
            context = inbound
        trace_headers: Optional[dict] = None
        if context is not None:
            trace_headers = {wire.TRACE_HEADER: wire.format_trace(context)}
        results: list = []
        admitted: list = []  # (slot, spec, future)
        retry_after = 0.0
        closed = False
        for request in requests:
            spec = request.spec
            try:
                future = self.scheduler.submit(
                    spec,
                    priority=request.priority,
                    trace=request.trace if request.trace is not None else context,
                )
            except AdmissionRejected as exc:
                retry_after = max(retry_after, exc.retry_after)
                results.append(wire.error_record(exc, spec=spec.name))
            except SchedulerClosed as exc:
                closed = True
                results.append(wire.error_record(exc, spec=spec.name))
            else:
                results.append(None)  # filled in below, in submission order
                admitted.append((len(results) - 1, spec, future))
        cancelled = False
        for slot, spec, future in admitted:
            try:
                results[slot] = wire.result_record(future.result())
            except CancelledError as exc:
                # ``close(drain=False)`` raced this request; without an
                # explicit handler (CancelledError is a BaseException) the
                # client would hang on a response that never comes.
                cancelled = True
                results[slot] = wire.error_record(exc, spec=spec.name)
            except Exception as exc:  # noqa: BLE001 - reported per spec
                results[slot] = wire.error_record(exc, spec=spec.name)
        if http_span is not None:
            tracer.finish(http_span)
        if closed or cancelled:
            # Structured partial status instead of a hung or reset socket.
            self._send_json(
                503,
                {
                    "ok": False,
                    "error": "scheduler closed while this batch was in flight",
                    "partial": True,
                    "results": results,
                },
                headers=trace_headers,
            )
            return
        if not admitted and results:
            # Nothing was even accepted: every spec was shed (overload).
            self._send_json(
                429,
                results,
                retry_after=retry_after,
                headers=trace_headers,
            )
            return
        self._send_json(200, results, headers=trace_headers)


class BatchHTTPServer(ThreadingHTTPServer):
    """Loopback HTTP server carrying a scheduler reference."""

    daemon_threads = True

    def __init__(self, address, scheduler: BatchScheduler, log_stream=None) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.log_stream = log_stream


def serve_http(
    scheduler: BatchScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    log_stream=None,
    ready: Optional[threading.Event] = None,
    ready_port: Optional[list] = None,
) -> None:
    """Serve ``POST /batch`` / ``GET /metrics`` / ``GET /healthz`` forever.

    ``port=0`` picks a free port; the bound port is appended to
    ``ready_port`` (if given) before ``ready`` is set, so tests and the
    CLI can print it.  Blocks until ``server.shutdown()`` — callers run
    this on a thread or let SIGINT unwind it.
    """
    server = BatchHTTPServer((host, port), scheduler, log_stream=log_stream)
    if ready_port is not None:
        ready_port.append(server.server_address[1])
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
