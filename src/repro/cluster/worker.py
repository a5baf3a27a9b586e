"""Cluster worker: executes leased cells and streams results home.

:class:`WorkerClient` is the remote half of the cluster tier — one
process per host (or several), each connecting to the coordinator with
``repro worker --connect HOST:PORT --slots K``.  A worker:

1. connects and sends a ``hello`` capability handshake (protocol
   version, slot count, cache backend, trace-cache availability);
2. waits for ``welcome`` — a structured ``reject`` (e.g. protocol
   mismatch) raises :class:`WorkerRejected` with the taxonomy code
   instead of a traceback;
3. runs ``lease`` frames on a
   :class:`~repro.service.executor.LocalPoolExecutor` of ``slots``
   jobs — the executor the local scheduler uses, driven through the
   same ``submit``/``poll``/``drain``/``cancel`` contract, so trace
   materialisation, fault injection, per-cell timeouts and pool-death
   recovery are identical wherever a cell lands;
4. streams each outcome back as a ``result`` (pickled
   :class:`~repro.sim.results.SystemResult`) or ``error`` frame, the
   latter carrying the executor's failure kind verbatim (``error:
   ...``, ``timeout after Ns``, ``pool-death``), and heartbeats between
   frames so the coordinator can tell a busy worker from a dead one;
5. exits cleanly on a ``shutdown`` frame or when the coordinator goes
   away, killing whatever its pool still runs.

One slot runs leases in-process, which (like ``--jobs 1``) enforces no
timeout; two or more run a process pool, recycled when a cell overruns
its timeout, its in-flight siblings rerun uncharged.  Retries stay with
the coordinator: the worker's executor runs each lease once.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from collections import deque
from typing import Optional

from repro.service import wire
from repro.service.executor import ExecutorConfig, LocalPoolExecutor

#: Seconds between heartbeat frames.  Coordinators judge staleness
#: against their ``hang_grace``, which should comfortably exceed this.
DEFAULT_HEARTBEAT_INTERVAL = 0.2


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker's handshake."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"coordinator rejected worker ({code}): {message}")


class WorkerClient:
    """One worker process's connection to a coordinator.

    ``slots`` bounds how many leases execute concurrently.  ``run()``
    blocks until the coordinator shuts the worker down (or the
    connection dies) and returns the number of leases completed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        slots: int = 1,
        name: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.slots = max(1, int(slots))
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_interval = max(0.05, float(heartbeat_interval))
        self.completed = 0
        self.errors = 0
        self._sock: Optional[socket.socket] = None
        self._wfile = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        #: Lease frames the reader thread queued for ``run`` to submit.
        self._leases: deque = deque()
        #: lease id -> (trace context, wall start, monotonic start).
        self._live: dict = {}
        self._executor = LocalPoolExecutor(ExecutorConfig(jobs=self.slots, retries=0))

    # -- wire helpers --------------------------------------------------- #

    def _send(self, frame: dict) -> None:
        with self._send_lock:
            if self._wfile is None:
                raise OSError("not connected")
            wire.write_frame(self._wfile, frame)

    def _capabilities(self) -> dict:
        from repro.workloads.trace_cache import env_enabled

        return {
            "worker": self.name,
            "slots": self.slots,
            "backend": os.environ.get("REPRO_CACHE_BACKEND", "slot"),
            "trace_cache": env_enabled(),
            "pid": os.getpid(),
        }

    # -- lifecycle ------------------------------------------------------ #

    def connect(self) -> None:
        """Dial the coordinator and complete the capability handshake."""
        sock = socket.create_connection((self.host, self.port))
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._send(wire.make_frame("hello", **self._capabilities()))
        frame = wire.read_frame(self._rfile)
        if frame is None:
            raise WorkerRejected("internal", "coordinator hung up mid-handshake")
        if frame.get("type") == "reject":
            raise WorkerRejected(
                str(frame.get("code", "internal")),
                str(frame.get("error", "no reason given")),
            )
        wire.check_frame(frame, expect="welcome")
        self.coordinator = frame.get("coordinator", "")

    def run(self) -> int:
        """Serve leases until shutdown/disconnect; returns leases done.

        The calling thread drives the executor, exactly as the
        scheduler's loop does: it submits the leases the reader thread
        queued, polls, ends each busy period with ``drain`` and waits
        on the executor's ``wakeup`` in between.
        """
        from repro.service.scheduler import _run_spec

        if self._sock is None:
            self.connect()
        executor = self._executor.bind(
            worker=_run_spec, on_result=self._on_result, on_failed=self._on_failed
        )
        for target in (self._read_loop, self._heartbeat_loop):
            threading.Thread(target=target, name="repro-worker", daemon=True).start()
        try:
            while not self._stop.is_set():
                while self._leases:
                    self._submit(self._leases.popleft())
                wait = executor.poll()
                if executor.ledger.idle:
                    executor.drain()  # ends the busy period
                with executor.wakeup:
                    if not (executor.signalled or self._leases or self._stop.is_set()):
                        executor.wakeup.wait(wait)
        finally:
            self._stop.set()
            # Results have nowhere to go once the connection is gone,
            # and a hung cell must not pin the process open: close()
            # kills whatever the pool still runs.
            executor.cancel()
            executor.close()
            self.close()
        return self.completed

    def stop(self) -> None:
        """Ask ``run`` to wind down (used by in-process test workers)."""
        self._stop.set()
        self._executor.notify()
        self.close()

    def kill(self) -> None:
        """Abruptly sever the connection — simulates a worker death."""
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.stop()

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- internals ------------------------------------------------------ #

    def _read_loop(self) -> None:
        """Queue lease frames for ``run``; stop on shutdown or disconnect."""
        try:
            while not self._stop.is_set():
                frame = wire.read_frame(self._rfile)
                if frame is None:
                    break  # coordinator went away
                kind = frame.get("type")
                if kind == "lease":
                    self._leases.append(frame)
                    self._executor.notify()
                elif kind == "shutdown":
                    self._send(wire.make_frame("goodbye"))
                    break
        except (wire.WireError, OSError):
            pass
        finally:
            self.stop()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self._send(wire.make_frame("heartbeat"))
            except OSError:
                return

    def _submit(self, frame: dict) -> None:
        """Start one lease on the executor, the lease id as its cell."""
        lease = frame.get("lease")
        payload = dict(frame.get("payload") or {})
        # The coordinator's lease-span context, when it traces.  Workers
        # run no tracer of their own: the execute span goes home as a
        # completed record inside the result/error frame and the
        # coordinator adopts it into its trace.  Popped so the spec
        # payload stays exactly what the local pool would see.
        trace_ctx = payload.pop("trace", None)
        self._live[lease] = (trace_ctx, time.time(), time.monotonic())
        self._executor.submit(lease, payload, frame.get("timeout"))

    def _on_result(self, lease, result) -> None:
        self.completed += 1
        self._reply(lease, "result", result=wire.encode_result(result))

    def _on_failed(self, lease, kind: str) -> None:
        self.errors += 1
        self._reply(lease, "error", error=kind)

    def _reply(self, lease, kind: str, **fields) -> None:
        """Send a resolved lease's outcome frame and forget the lease.

        A traced lease's frame carries its ``execute`` span record.
        """
        self._executor.ledger.report.records.pop(lease, None)
        trace_ctx, wall, started = self._live.pop(lease)
        if trace_ctx is not None:
            from repro.obs.spans import completed_span

            fields["spans"] = [
                completed_span(
                    trace_ctx,
                    "execute",
                    wall=wall,
                    duration=time.monotonic() - started,
                    status="ok" if kind == "result" else "error",
                    worker=self.name,
                )
            ]
        try:
            self._send(wire.make_frame(kind, lease=lease, **fields))
        except OSError:
            pass


def run_worker(
    connect: str,
    *,
    slots: int = 1,
    name: Optional[str] = None,
    stream=None,
) -> int:
    """CLI body of ``repro worker``: serve one coordinator, then exit.

    Returns the process exit code: 0 after a clean shutdown or
    coordinator disconnect, 2 if the handshake was rejected.
    """
    from repro.cluster.coordinator import parse_address

    stream = stream if stream is not None else sys.stderr
    host, port = parse_address(connect)
    client = WorkerClient(host, port, slots=slots, name=name)
    try:
        client.connect()
    except WorkerRejected as exc:
        print(f"repro worker: {exc}", file=stream)
        return 2
    except OSError as exc:
        print(f"repro worker: cannot reach {host}:{port}: {exc}", file=stream)
        return 2
    print(
        f"repro worker: {client.name} serving {client.coordinator or connect} "
        f"with {client.slots} slot(s)",
        file=stream,
    )
    completed = client.run()
    print(
        f"repro worker: done — {completed} lease(s) completed, "
        f"{client.errors} error(s)",
        file=stream,
    )
    return 0
