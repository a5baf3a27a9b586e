"""Cluster worker: executes leased cells and streams results home.

:class:`WorkerClient` is the remote half of the cluster tier — one
process per host (or several), started with ``repro worker --connect
HOST:PORT --slots K``.  It supervises K *lanes*: forked processes, each
on its own coordinator connection, running one lease at a time
in-process.  A lane:

1. sends a ``hello`` capability handshake as ``NAME/i`` with one slot
   (protocol version, cache backend, trace-cache availability, its own
   pid) and waits for ``welcome``; it reports the outcome to the
   supervisor, so a structured ``reject`` (e.g. protocol mismatch)
   raises :class:`WorkerRejected` with the taxonomy code in the caller
   of :meth:`WorkerClient.connect`;
2. runs each ``lease`` frame in-process through the one worker entry
   point, :func:`~repro.execution.simulate._run_spec`, as an untimed
   ``--jobs 1`` does, so trace materialisation and fault injection
   (hard deaths downgraded to ``crash``) are identical wherever a cell
   lands;
3. streams each outcome back as a ``result`` (pickled
   :class:`~repro.sim.results.SystemResult`) or ``error`` frame, the
   latter carrying the failure kind the local executor would charge
   (``error: <exception repr>``), and heartbeats every
   :data:`~repro.service.wire.HEARTBEAT_INTERVAL` from a second thread,
   so the coordinator can tell a busy lane from a frozen one;
4. past the lease frame's ``timeout``, answers for the lease from that
   heartbeat thread with the ``error`` frame ``timeout after Ns`` and
   exits;
5. exits with code 0 on a ``shutdown`` frame or when the coordinator
   goes away.

The supervisor opens each lane's connection and keeps it across the
lane's life.  A lane that timed out is replaced by a fresh one on the
same connection: the lane reads frames only between leases, so a lease
sent after the timeout waits on the socket for its successor, and the
coordinator sees one lane that answered ``timeout`` and went on.  A lane
that died any other way (``kill -9`` mid-lease) has its connection shut
down, so the coordinator charges the lease ``worker-lost`` and
redispatches it, and a fresh lane registers on a new connection.  The
supervisor returns once every lane has exited with code 0, and takes
its lanes along however it ends: each lane watches the supervisor's
parent-death pipe.  Retries stay with the coordinator: a lane runs each
lease once.
"""

from __future__ import annotations

import json
import mmap
import os
import select
import signal
import socket
import sys
import threading
import time
import traceback
from collections import namedtuple
from typing import Optional

from repro.service import wire
from repro.service.executor import _exit_with_parent, _parent_pipe, timeout_kind

#: Seconds between the supervisor's checks that it has not been stopped.
STOP_POLL_INTERVAL = 0.1

#: Exit code of a lane that answered for a lease past its timeout.
LANE_TIMED_OUT = 3


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker's handshake."""

    def __init__(self, code: str, message: str) -> None:
        self.code, self.reason = code, message
        super().__init__(f"coordinator rejected worker ({code}): {message}")


#: A forked lane: its pid, its connection (held by the supervisor too)
#: and the read end of its pipe, which reports the handshake and reads
#: EOF when the lane exits.
_LaneProcess = namedtuple("_LaneProcess", "pid sock pipe")

#: A lane's running lease: its id, trace context, wall and monotonic
#: start, timeout and deadline (both ``None`` when untimed).
_Live = namedtuple("_Live", "lease trace wall started timeout deadline")


class WorkerClient:
    """One worker's lanes, connected to a coordinator.

    ``slots`` is the number of lanes, each running one lease at a time.
    :meth:`connect` forks them and returns once every one has
    registered; :meth:`run` supervises them until each has exited with
    code 0 (a ``shutdown`` frame or a vanished coordinator) and returns
    the number of leases completed.  Lanes are forked, so connect from
    a process with no other threads where it matters: ``repro worker``
    starts none.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        slots: int = 1,
        name: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.slots = max(1, int(slots))
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.coordinator = ""
        #: Lane index -> :class:`_LaneProcess` of each lane not yet reaped.
        self._lanes: dict[int, _LaneProcess] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        #: Completed and failed leases per lane, shared with the lanes.
        self._counts = memoryview(mmap.mmap(-1, 16 * self.slots)).cast("q")

    @property
    def completed(self) -> int:
        return sum(self._counts[0::2])

    @property
    def errors(self) -> int:
        return sum(self._counts[1::2])

    @property
    def lanes(self) -> dict[int, int]:
        """Lane index -> pid of every lane not yet reaped."""
        with self._lock:
            return {index: lane.pid for index, lane in sorted(self._lanes.items())}

    # -- lifecycle ------------------------------------------------------ #

    def connect(self) -> None:
        """Fork the lanes and wait until each has registered.

        Raises :class:`WorkerRejected` (or :class:`OSError` if the
        coordinator cannot be reached) after ending every lane, should
        any lane fail its handshake.
        """
        # Imported once here, so no lane pays for it.
        from repro.execution.simulate import _run_spec  # noqa: F401

        if self._lanes:
            return
        try:
            pipes = [self._fork(index) for index in range(self.slots)]
            for pipe in pipes:
                self._await_handshake(pipe)
        except BaseException:
            self.stop()
            raise

    def run(self) -> int:
        """Supervise the lanes until every one has exited; returns the
        leases completed.

        A lane that exits with a non-zero status is replaced (see the
        module docstring); a replacement that fails its handshake
        raises as :meth:`connect` does, ending the worker.
        """
        if not self._lanes:
            self.connect()
        try:
            while not self._stop.is_set():
                with self._lock:
                    pipes = {lane.pipe: index for index, lane in self._lanes.items()}
                if not pipes:
                    break
                exited, _, _ = select.select(list(pipes), [], [], STOP_POLL_INTERVAL)
                for pipe in exited:
                    self._replace(pipes[pipe])
        except (WorkerRejected, OSError):
            if not self._stop.is_set():
                raise  # a replacement lane could not register
        finally:
            self.stop()
        return self.completed

    def stop(self) -> None:
        """Kill every lane, reap it and drop its connection (a worker
        death, to the coordinator); :meth:`run` returns."""
        self._stop.set()
        with self._lock:
            lanes, self._lanes = list(self._lanes.values()), {}
            for lane in lanes:
                try:
                    os.kill(lane.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for lane in lanes:
                os.waitpid(lane.pid, 0)
                os.close(lane.pipe)
                _drop(lane.sock)

    # -- internals ------------------------------------------------------ #

    def _replace(self, index: int) -> None:
        """Reap lane ``index`` and fork its successor, if it needs one."""
        with self._lock:
            lane = self._lanes.pop(index, None)
        if lane is None:
            return  # stopped meanwhile
        _, status = os.waitpid(lane.pid, 0)
        os.close(lane.pipe)
        code = os.waitstatus_to_exitcode(status)
        if code == LANE_TIMED_OUT:
            self._await_handshake(self._fork(index, lane.sock))
            return
        _drop(lane.sock)
        if code != 0:
            self._await_handshake(self._fork(index))

    def _fork(self, index: int, sock: Optional[socket.socket] = None) -> int:
        """Fork lane ``index``; returns the read end of its pipe.

        With no ``sock`` the lane gets a new connection and registers on
        it; given one, the lane takes over its predecessor's.
        """
        registered = sock is not None
        if sock is None:
            sock = socket.create_connection((self.host, self.port))
            # Each frame is one write: sent at once, a result never waits
            # on the delayed ack of the heartbeat before it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        death_pipe = _parent_pipe()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the lane: never returns
            code = 1
            try:
                os.close(read_fd)
                for sibling in self._lanes.values():
                    os.close(sibling.pipe)
                    sibling.sock.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the supervisor's to handle
                _exit_with_parent(*death_pipe)
                lane = _Lane(self, index, sock)
                try:
                    if not registered:
                        lane.handshake()
                except WorkerRejected as exc:
                    report = {"code": exc.code, "error": exc.reason}
                except OSError as exc:
                    report = {"unreachable": str(exc)}
                else:
                    report = {"coordinator": lane.coordinator}
                # Kept open: the supervisor reads EOF when the lane exits.
                os.write(write_fd, json.dumps(report).encode())
                if "coordinator" in report:
                    code = lane.serve()
            except BaseException:  # reported here: a lane never unwinds into its parent's code
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with self._lock:
            self._lanes[index] = _LaneProcess(pid, sock, read_fd)
        return read_fd

    def _await_handshake(self, pipe: int) -> None:
        """Read one lane's handshake report; raise if it did not register."""
        # One short write, so one read has it all (EOF if the lane died
        # before reporting).
        report = json.loads(os.read(pipe, 65536) or b'{"code": "internal"}')
        if "unreachable" in report:
            raise OSError(report["unreachable"])
        if "coordinator" not in report:
            raise WorkerRejected(report["code"], report.get("error", "lane exited mid-handshake"))
        self.coordinator = report["coordinator"] or self.coordinator


def _drop(sock: socket.socket) -> None:
    """Shut a connection down for every process holding it, then close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class _Lane:
    """One lane: a coordinator connection serving one lease at a time.

    Lives only in a forked process.  The main thread reads frames
    between leases and runs each lease; the heartbeat thread is also
    the lease watchdog.
    """

    def __init__(self, client: WorkerClient, index: int, sock: socket.socket) -> None:
        self.client = client
        self.index = index
        self.name = f"{client.name}/{index}"
        self.coordinator = ""
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._send_lock = threading.Lock()
        self._live: Optional[_Live] = None
        #: Set when a lease starts, so the watchdog re-reads its deadline.
        self._started = threading.Event()

    def handshake(self) -> None:
        """Complete the capability handshake on a new connection."""
        from repro.workloads.trace_cache import env_enabled

        hello = wire.make_frame(
            "hello",
            worker=self.name,
            slots=1,
            backend=os.environ.get("REPRO_CACHE_BACKEND", "slot"),
            trace_cache=env_enabled(),
            pid=os.getpid(),
        )
        wire.write_frame(self._wfile, hello)
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

    def serve(self) -> int:
        """Run leases until shutdown or disconnect; returns exit code 0."""
        threading.Thread(target=self._heartbeat_loop, name="repro-lane", daemon=True).start()
        try:
            while True:
                frame = wire.read_frame(self._rfile)
                if frame is None:
                    return 0  # coordinator went away
                kind = frame.get("type")
                if kind == "shutdown":
                    with self._send_lock:
                        wire.write_frame(self._wfile, wire.make_frame("goodbye"))
                    return 0
                if kind == "lease":
                    self._run(frame)
        except (wire.WireError, OSError):
            return 0

    def _run(self, frame: dict) -> None:
        """Run one lease in-process and answer for it."""
        from repro.execution.simulate import _run_spec

        lease, timeout = frame.get("lease"), frame.get("timeout")
        payload = dict(frame.get("payload") or {})
        # The coordinator's lease-span context, when it traces.  Lanes run
        # no tracer of their own: the execute span goes home as a
        # completed record inside the result/error frame and the
        # coordinator adopts it into its trace.  Popped so the spec
        # payload stays exactly what the local pool would see.
        trace = payload.pop("trace", None)
        # The coordinator's result-cache directory names a path on its
        # host, not this one: lanes keep their traces in memory.
        payload.pop("cache_dir", None)
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        self._live = _Live(lease, trace, time.time(), started, timeout, deadline)
        self._started.set()
        if "fault" in payload:
            payload["fault_in_process"] = True  # never kill the lane itself
        try:
            _, result = _run_spec(payload)
        except Exception as exc:
            self._reply(lease, "error", error=f"error: {exc!r}")
        else:
            self._reply(lease, "result", result=wire.encode_result(result))

    def _heartbeat_loop(self) -> None:
        """Heartbeat; answer for a lease past its timeout, then exit."""
        beat = time.monotonic() + wire.HEARTBEAT_INTERVAL
        while True:
            wait = beat - time.monotonic()
            live = self._live
            if live is not None and live.deadline is not None:
                wait = min(wait, live.deadline - time.monotonic())
            self._started.wait(max(0.0, wait))
            self._started.clear()
            now = time.monotonic()
            with self._send_lock:
                live = self._live
                if (
                    live is not None
                    and live.deadline is not None
                    and now >= live.deadline
                ):
                    # A hung cell cannot be stopped alone: answer for it
                    # and exit holding the send lock, so no result can
                    # follow.  The supervisor forks a fresh lane.
                    self._count(failed=1)
                    self._write_reply(live, "error", error=timeout_kind(live.timeout))
                    os._exit(LANE_TIMED_OUT)
                if now < beat:
                    continue  # woken by a lease start
                beat = now + wire.HEARTBEAT_INTERVAL
                try:
                    wire.write_frame(self._wfile, wire.make_frame("heartbeat"))
                except OSError:
                    os._exit(0)  # coordinator went away mid-lease

    def _count(self, failed: int) -> None:
        self.client._counts[2 * self.index + failed] += 1

    def _reply(self, lease, kind: str, **fields) -> None:
        """Send a resolved lease's outcome frame, unless the watchdog
        has answered for it already."""
        with self._send_lock:
            live = self._live
            if live is None or live.lease != lease:
                return
            self._count(failed=int(kind != "result"))
            self._write_reply(live, kind, **fields)

    def _write_reply(self, live: _Live, kind: str, **fields) -> None:
        """Write a lease's outcome frame (send lock held) and forget it.

        A traced lease's frame carries its ``execute`` span record.
        """
        self._live = None
        if live.trace is not None:
            from repro.obs.spans import completed_span

            fields["spans"] = [
                completed_span(
                    live.trace,
                    "execute",
                    wall=live.wall,
                    duration=time.monotonic() - live.started,
                    status="ok" if kind == "result" else "error",
                    worker=self.name,
                )
            ]
        try:
            wire.write_frame(self._wfile, wire.make_frame(kind, lease=live.lease, **fields))
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
    coordinator disconnect, 2 if a lane's handshake was rejected or the
    coordinator could not be reached.
    """
    from repro.cluster.coordinator import parse_address

    stream = stream if stream is not None else sys.stderr
    host, port = parse_address(connect)
    client = WorkerClient(host, port, slots=slots, name=name)
    try:
        client.connect()
        print(
            f"repro worker: {client.name} serving {client.coordinator or connect} "
            f"with {client.slots} lane(s)",
            file=stream,
        )
        completed = client.run()
    except WorkerRejected as exc:
        print(f"repro worker: {exc}", file=stream)
        return 2
    except OSError as exc:
        print(f"repro worker: cannot reach {host}:{port}: {exc}", file=stream)
        return 2
    print(
        f"repro worker: done — {completed} lease(s) completed, "
        f"{client.errors} error(s)",
        file=stream,
    )
    return 0
