"""Durability layer: journal + resume, watchdog, chaos."""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import CancelledError
from pathlib import Path

import pytest

from repro.api import RunSpec, result_digest
from repro.execution.faults import Fault, FaultPlan
from repro.obs.metrics import prometheus_text
from repro.obs.spans import SpanTracer
from repro.service import (
    BatchHTTPServer,
    BatchJournal,
    BatchScheduler,
    JournalError,
    replay_journal,
    run_batch,
    serve_jsonl,
)
from repro.service.durability import JOURNAL_FILENAME

Q, W = 1_500, 500


def spec(mix="471+444", scheme="avgcc", **kw):
    return RunSpec(mix=mix, scheme=scheme, quota=Q, warmup=W, **kw)


def four_specs():
    return [
        spec(),
        spec(scheme="baseline"),
        spec(mix="444+445"),
        spec(mix="444+445", scheme="dsr"),
    ]


# --------------------------------------------------------------------- #
# Journal file format
# --------------------------------------------------------------------- #


def test_journal_append_replay_roundtrip(tmp_path):
    journal = BatchJournal(tmp_path, fsync=False)
    journal.append("submitted", "k1", spec={"mix": "a"}, priority=2)
    journal.append("submitted", "k2", spec={"mix": "b"}, priority=0)
    journal.append("started", "k1")
    journal.append("done", "k2")
    journal.flush()
    replay = replay_journal(tmp_path)
    assert replay.pending == [("k1", {"mix": "a"}, 2)]
    assert replay.done_keys == {"k2"}
    assert replay.counts == {"submitted": 2, "started": 1, "done": 1}
    assert replay.corrupt_lines == 0
    journal.close(compact=False)


def test_journal_appends_are_buffered_until_flush(tmp_path):
    journal = BatchJournal(tmp_path, fsync=False, flush_every=1000)
    journal.append("submitted", "k1", spec={}, priority=0)
    assert (tmp_path / JOURNAL_FILENAME).read_text() == ""
    journal.flush()
    assert "k1" in (tmp_path / JOURNAL_FILENAME).read_text()
    journal.close(compact=False)


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    journal = BatchJournal(tmp_path, fsync=False)
    journal.append("submitted", "k1", spec={"mix": "a"}, priority=0)
    journal.append("done", "k1")
    journal.append("submitted", "k2", spec={"mix": "b"}, priority=1)
    journal.close(compact=False)
    path = tmp_path / JOURNAL_FILENAME
    lines = path.read_text().splitlines()
    # Flip a bit in k1's terminal record and tear the file mid-line, the
    # two corruptions a kill -9 can actually produce.
    lines[1] = lines[1].replace('"done"', '"dead"')
    lines.append('{"v":1,"event":"done","key":"k2","ts":1')  # torn write
    path.write_text("\n".join(lines) + "\n")
    replay = replay_journal(tmp_path)
    assert replay.corrupt_lines == 2
    # k1 lost its (corrupt) terminal event -> conservatively pending
    # again; content addressing makes the re-run a cache hit, not a bug.
    assert {key for key, _, _ in replay.pending} == {"k1", "k2"}


def test_journal_compact_drops_terminal_and_rewrites_pending(tmp_path):
    journal = BatchJournal(tmp_path, fsync=False)
    journal.append("submitted", "k1", spec={"mix": "a"}, priority=3)
    journal.append("started", "k1")
    journal.append("submitted", "k2", spec={"mix": "b"}, priority=0)
    journal.append("done", "k2")
    journal.append("submitted", "k3", spec={"mix": "c"}, priority=0)
    journal.append("failed", "k3", detail="boom")
    assert journal.compact() == 1
    replay = replay_journal(tmp_path)
    assert replay.pending == [("k1", {"mix": "a"}, 3)]
    assert replay.done_keys == set()  # terminal history is gone
    # The append handle survives compaction.
    journal.append("done", "k1")
    journal.close(compact=True)
    assert (tmp_path / JOURNAL_FILENAME).read_text() == ""


def test_replay_missing_journal_raises(tmp_path):
    with pytest.raises(JournalError):
        replay_journal(tmp_path / "nowhere")


# --------------------------------------------------------------------- #
# Scheduler journal lifecycle + resume
# --------------------------------------------------------------------- #


def test_clean_batch_compacts_journal_to_empty(tmp_path):
    run_batch([spec(), spec(scheme="baseline")], jobs=1, cache_dir=tmp_path)
    assert (tmp_path / JOURNAL_FILENAME).read_text() == ""


def test_aborted_batch_keeps_submissions_for_resume(tmp_path):
    sched = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    futures = [sched.submit(s, priority=i) for i, s in enumerate(four_specs())]
    sched.close(drain=False)
    assert all(f.cancelled() for f in futures)
    replay = replay_journal(tmp_path)
    assert len(replay.pending) == 4
    # Priorities survive the crash/abort -> resume round trip.
    assert sorted(p for _, _, p in replay.pending) == [0, 1, 2, 3]


def test_journal_roundtrip_preserves_sanitize(tmp_path):
    """``RunSpec.sanitize`` survives the WAL: a sanitized batch that
    crashes must resume *sanitized*, not silently drop the checker."""
    sched = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    sched.submit(spec(sanitize=True))
    sched.submit(spec(scheme="baseline"))  # sanitize unset -> env default
    sched.close(drain=False)

    replay = replay_journal(tmp_path)
    restored = {
        s.scheme: s
        for s in (RunSpec.from_dict(d) for _, d, _ in replay.pending)
    }
    assert restored["avgcc"].sanitize is True
    assert restored["baseline"].sanitize is None
    # The journal dict itself carries the field (not a from_dict default).
    payloads = {d["scheme"]: d for _, d, _ in replay.pending}
    assert payloads["avgcc"]["sanitize"] is True


def test_recover_reruns_outstanding_work_bit_identically(tmp_path):
    specs = four_specs()
    interrupted = BatchScheduler(jobs=1, cache_dir=tmp_path / "a", start=False)
    for s in specs:
        interrupted.submit(s)
    interrupted.close(drain=False)  # the "crash"

    resumed = BatchScheduler.recover(tmp_path / "a", jobs=1, start=False)
    summary = resumed.resume_summary
    assert summary["resumed"] == 4 and summary["done"] == 0
    assert resumed.stats().recovered == 4
    resumed.start()
    digests = {
        s.name: result_digest(f.result(timeout=300)) for s, f in summary["futures"]
    }
    resumed.close()
    assert (tmp_path / "a" / JOURNAL_FILENAME).read_text() == ""

    _outcomes, _stats, _report = run_batch(specs, jobs=1, cache_dir=tmp_path / "b")
    clean = {
        s.name: result_digest(o) for s, o in zip(specs, _outcomes)
    }
    assert digests == clean


def test_resume_skips_simulation_for_cache_resident_specs(tmp_path):
    done, fresh = four_specs()[:2], four_specs()[2:]
    run_batch(done, jobs=1, cache_dir=tmp_path)  # results now on disk

    interrupted = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    for s in done + fresh:
        interrupted.submit(s)
    interrupted.close(drain=False)

    resumed = BatchScheduler.recover(tmp_path, jobs=1)
    assert resumed.resume_summary["cache_resident"] == 2
    for _spec, future in resumed.resume_summary["futures"]:
        future.result(timeout=300)
    resumed.close()
    stats = resumed.stats()
    # Zero duplicate simulation: only the genuinely unfinished pair ran.
    assert stats.executed == 2
    assert stats.cache_hits == 2


def test_resume_without_journal_raises(tmp_path):
    sched = BatchScheduler(jobs=1, start=False, journal=False)
    with pytest.raises(JournalError):
        sched.resume_from_journal()
    sched.close(drain=False)


def test_cli_batch_resume_replays_journal(tmp_path, capsys):
    from repro.cli import main

    cache = tmp_path / "cache"
    sched = BatchScheduler(jobs=1, cache_dir=cache, start=False)
    sched.submit(spec())
    sched.close(drain=False)
    assert main(["batch", "--resume", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr()
    assert "digest" in out.out
    assert "1 outstanding spec(s) re-enqueued" in out.err
    assert (cache / JOURNAL_FILENAME).read_text() == ""


def test_cli_batch_resume_requires_cache_dir():
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["batch", "--resume"])
    assert excinfo.value.code == 1


def test_every_cancel_path_journals_and_finishes_its_cell_span(tmp_path, monkeypatch):
    """Withdrawn, aborted and interrupted entries leave the same records:
    a ``cancelled`` journal line only for the first (an abort or
    interrupt keeps the spec resumable), and a cell span whose status
    says which path retired it."""
    tracer = SpanTracer()
    journaled = []

    def scheduler(name):
        sched = BatchScheduler(
            jobs=1, cache_dir=tmp_path / name, start=False, tracer=tracer
        )
        append = sched._journal.append

        def spy(event, key, **fields):
            if event == "cancelled":
                journaled.append((key, fields.get("detail")))
            append(event, key, **fields)

        monkeypatch.setattr(sched._journal, "append", spy)
        return sched

    withdrawn, kept = spec(scheme="dsr"), spec()
    sched = scheduler("withdraw")
    withdrawn_future = sched.submit(withdrawn, priority=1)
    kept_future = sched.submit(kept, priority=0)
    assert withdrawn_future.cancel()
    sched.start()
    assert kept_future.result(timeout=300).scheme == "avgcc"
    sched.close()
    assert sched.stats().cancelled == 1

    aborted = spec(mix="444+445")
    sched = scheduler("abort")
    aborted_future = sched.submit(aborted)
    sched.close(drain=False)
    assert aborted_future.cancelled() and sched.stats().cancelled == 1

    interrupted = spec(mix="444+445", scheme="dsr")
    sched = scheduler("interrupt")

    submit = sched.executor.submit

    def interrupt(cell, payload):
        sched.executor.cancel()  # the interrupt lands as the cell is handed over
        submit(cell, payload)

    monkeypatch.setattr(sched.executor, "submit", interrupt)
    interrupted_future = sched.submit(interrupted)
    sched.start()
    with pytest.raises(CancelledError):
        interrupted_future.result(timeout=300)
    sched.close()
    assert sched.stats().cancelled == 1

    assert journaled == [(withdrawn.cache_key(), None)]
    statuses = {span.attrs["cell"]: span.status for span in tracer.spans if span.name == "cell"}
    assert statuses == {
        withdrawn.name: "cancelled",
        kept.name: "ok",
        aborted.name: "cancelled",
        interrupted.name: "cancelled",
    }


# --------------------------------------------------------------------- #
# Journals written by repro 3.x
# --------------------------------------------------------------------- #


def journal_like_3x(cache: Path) -> tuple:
    """Leave two pending specs the way a 3.x batch journaled them: the
    first readable here, the second with the ``"deadline": null`` key
    every 3.x spec carried."""
    readable, old = spec(), spec(scheme="baseline")
    journal = BatchJournal(cache)
    journal.append(
        "submitted", readable.cache_key(), spec=readable.to_dict(), priority=0
    )
    journal.append(
        "submitted",
        old.cache_key(),
        spec={**old.to_dict(), "deadline": None},
        priority=0,
    )
    journal.close(compact=False)
    return readable, old


def test_resume_refuses_a_3x_journal_before_submitting_anything(tmp_path):
    journal_like_3x(tmp_path)
    sched = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    with pytest.raises(JournalError, match="older repro"):
        sched.resume_from_journal()
    assert sched.stats().submitted == 0
    sched.close(drain=False)


def test_cli_resume_on_a_3x_journal_exits_1_and_a_fresh_batch_still_runs(tmp_path):
    cache = tmp_path / "cache"
    readable, old = journal_like_3x(cache)
    journal = cache / JOURNAL_FILENAME
    before = journal.read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    metrics = tmp_path / "resume.prom"
    resume = subprocess.run(
        [sys.executable, "-m", "repro.cli", "batch", "--resume",
         "--cache-dir", str(cache), "--metrics", str(metrics)],
        env=env, capture_output=True, text=True,
    )
    assert resume.returncode == 1
    assert "Traceback" not in resume.stderr
    assert f"{journal} was written by an older repro" in resume.stderr
    assert "finish that batch with the version that wrote it" in resume.stderr
    assert "repro_service_submitted_total 0\n" in metrics.read_text()
    assert journal.read_text() == before  # nothing re-enqueued

    # A fresh batch on the same root completes; its close-time compact
    # keeps the unreadable record for the version that wrote it.
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([readable.to_dict()]))
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.cli", "batch", str(specs),
         "--cache-dir", str(cache)],
        env=env, capture_output=True, text=True,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert "Traceback" not in fresh.stderr
    assert [key for key, _, _ in replay_journal(cache).pending] == [old.cache_key()]


# --------------------------------------------------------------------- #
# Watchdog
# --------------------------------------------------------------------- #


def test_watchdog_kills_stalled_worker_and_batch_completes(tmp_path):
    victim = spec()
    plan = FaultPlan({victim: Fault("hang", seconds=120.0)})
    sched = BatchScheduler(
        jobs=2,
        cache_dir=tmp_path,
        executor_options={"fault_plan": plan},
        timeout=2.0,
        retries=2,
    )
    futures = [sched.submit(s) for s in four_specs()]
    results = [f.result(timeout=300) for f in futures]
    sched.close()
    assert all(r is not None for r in results)
    assert sched.report.timeouts >= 1
    assert sched.stats().failed == 0
    assert (tmp_path / JOURNAL_FILENAME).read_text() == ""


# --------------------------------------------------------------------- #
# Chaos: everything at once, digests still golden
# --------------------------------------------------------------------- #


def test_chaos_plan_yields_bit_identical_digests(tmp_path):
    specs = four_specs()
    plan = FaultPlan.from_spec(
        "crash=1,hang=1,corrupt=1,crash_process=1", seed=11, hang_seconds=0.1
    )
    outcomes, stats, _ = run_batch(
        specs,
        jobs=2,
        cache_dir=tmp_path / "chaos",
        executor_options={"fault_plan": plan},
        retries=2,
    )
    clean, _, _ = run_batch(specs, jobs=1, cache_dir=tmp_path / "clean")
    for s, faulty, ok in zip(specs, outcomes, clean):
        assert result_digest(faulty) == result_digest(ok), s.name
    assert stats.failed == 0
    # Every lifecycle reached terminal: the journal replays to empty.
    assert (tmp_path / "chaos" / JOURNAL_FILENAME).read_text() == ""


# --------------------------------------------------------------------- #
# Hard kills leave no process behind
# --------------------------------------------------------------------- #


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (read off /proc)."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        os.kill(pid, 0)
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (ProcessLookupError, FileNotFoundError):
        return False
    return state != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to find children"
)
def test_kill_9_mid_batch_takes_its_pool_workers_along(tmp_path):
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the parent-death pipe only when forked")

    specs = tmp_path / "specs.json"
    specs.write_text(
        json.dumps(
            [
                {"mix": "471+444", "scheme": s, "quota": 400_000, "warmup": 50_000}
                for s in ("baseline", "avgcc", "cc", "ecc")
            ]
        )
    )
    cells = tmp_path / "cells"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    batch = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "batch", str(specs), "--jobs", "2",
         "--cache-dir", str(cells)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    journal = cells / JOURNAL_FILENAME
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            assert batch.poll() is None, "batch exited before its first started record"
            started = journal.exists() and '"started"' in journal.read_text()
            workers = _children(batch.pid)
            if started and len(workers) >= 2:
                break
            time.sleep(0.05)
        assert len(workers) >= 2, "the pool never started"
        time.sleep(0.3)  # let the pool finish forking
        workers = _children(batch.pid)
    finally:
        batch.kill()
        batch.wait()

    gone_by = time.monotonic() + 5
    while any(map(_running, workers)) and time.monotonic() < gone_by:
        time.sleep(0.05)
    assert not [pid for pid in workers if _running(pid)], "orphaned pool workers"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to find children"
)
def test_kill_9_mid_lease_takes_the_worker_lanes_along():
    """A ``kill -9``ed ``repro worker`` ends its lanes (each watches its
    parent-death pipe), the one holding a hung lease included."""
    victim = RunSpec(mix="471+444", scheme="avgcc", quota=1_500, warmup=500)
    scheduler = BatchScheduler(
        executor="cluster",
        executor_options={
            "listen": "127.0.0.1:0",
            "fault_plan": FaultPlan({victim: Fault("hang", seconds=60.0)}),
        },
    )
    host, port = scheduler.executor.address
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--connect", f"{host}:{port}",
         "--slots", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    lanes: list[int] = []
    try:
        scheduler.submit(victim)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            assert worker.poll() is None, "worker exited before its lease"
            if scheduler.stats().leases_active:
                break
            time.sleep(0.05)
        lanes = _children(worker.pid)
        assert len(lanes) == 2, "the worker does not run one lane per slot"
    finally:
        worker.kill()
        worker.wait()
        scheduler.close(drain=False)

    gone_by = time.monotonic() + 5
    while any(map(_running, lanes)) and time.monotonic() < gone_by:
        time.sleep(0.05)
    assert not [pid for pid in lanes if _running(pid)], "orphaned worker lanes"


def test_result_cache_sweeps_stale_tmp_files(tmp_path):
    from repro.experiments.parallel import ResultCache

    fan = tmp_path / "de"
    fan.mkdir()
    # Writer pid 2**22+1 is safely past any real pid on this box.
    fan.joinpath(".deadbeef.pkl.4194305.tmp").write_bytes(b"half a write")
    cache = ResultCache(tmp_path)
    assert cache.tmp_swept == 1
    assert not list(tmp_path.glob("*/.*.tmp"))


# --------------------------------------------------------------------- #
# Front-end shutdown semantics
# --------------------------------------------------------------------- #


def _http_server(sched):
    server = BatchHTTPServer(("127.0.0.1", 0), sched)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address[1]


def test_http_close_mid_batch_returns_partial_503_not_a_hang():
    sched = BatchScheduler(jobs=1, start=False)  # nothing ever executes
    server, thread, port = _http_server(sched)
    status = {}

    def request():
        body = json.dumps([spec().to_dict()]).encode()
        req = urllib.request.Request(f"http://127.0.0.1:{port}/batch", data=body)
        try:
            urllib.request.urlopen(req, timeout=60)
        except urllib.error.HTTPError as exc:
            status["code"] = exc.code
            status["body"] = json.load(exc)

    try:
        client = threading.Thread(target=request)
        client.start()
        time.sleep(0.3)  # request is in flight, future pending
        sched.close(drain=False)
        client.join(timeout=30)
        assert not client.is_alive(), "client hung on a cancelled batch"
        assert status["code"] == 503
        assert status["body"]["partial"] is True
        assert status["body"]["results"][0]["cancelled"] is True
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_serve_jsonl_reports_cancellation_instead_of_dropping_it():
    sched = BatchScheduler(jobs=1, start=False)
    out, err = io.StringIO(), io.StringIO()
    line = json.dumps(spec().to_dict())
    done = threading.Event()
    result = {}

    def run():
        result["code"] = serve_jsonl(
            sched, stdin=io.StringIO(line + "\n"), stdout=out, stderr=err
        )
        done.set()

    threading.Thread(target=run).start()
    time.sleep(0.3)
    sched.close(drain=False)
    assert done.wait(timeout=30), "serve_jsonl hung on a cancelled future"
    assert result["code"] == 1
    record = json.loads(out.getvalue())
    assert record["cancelled"] is True and record["ok"] is False


# --------------------------------------------------------------------- #
# Metrics surface
# --------------------------------------------------------------------- #


def test_new_counters_render_in_prometheus(tmp_path):
    sched = BatchScheduler(jobs=1, cache_dir=tmp_path, start=False)
    sched.submit(spec())
    sched.submit(spec(scheme="baseline"))
    sched.submit(spec())  # joins the queued spec: no second simulation
    assert sched.stats().dedup_hits == 1
    sched.start()
    sched.drain(timeout=300)
    sched.close()
    assert sched.stats().executed == 2
    text = prometheus_text(sched.stats(), sched.report)
    assert "repro_service_dedup_hits_total 1" in text
    assert "repro_service_recovered_total 0" in text
    assert "repro_run_timeouts_total 0" in text
    assert "watchdog" not in text
    assert "repro_service_cache_tmp_swept_total 0" in text
    assert "shm_swept" not in text
    assert "repro_service_shed_total" not in text
