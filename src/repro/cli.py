"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``schemes``
    List every scheme the registry can build.
``mixes``
    List the paper's 2- and 4-core multiprogrammed mixes.
``run``
    Simulate one mix under one scheme and print the headline metrics::

        python -m repro.cli run --mix 471+444 --scheme avgcc

``experiment``
    Regenerate one of the paper's tables/figures, or (``all``) every one
    of them from one batch::

        python -m repro.cli experiment fig8
        python -m repro.cli experiment all --jobs 2 --cache-dir .cells

``calibrate``
    Print each benchmark model's measured MPKI/CPI against Table 3.

``stats``
    Simulate one mix with interval telemetry attached and print each
    core's MPKI / CPI / spill-rate / SSL-state time-series::

        python -m repro.cli stats --mix 471+444 --scheme avgcc

``trace``
    Simulate one mix with event tracing attached and emit the typed
    events (spill, swap, receive_flip, regrain, qos_throttle) as JSONL::

        python -m repro.cli trace --mix 471+444 --events spill,swap

``batch``
    Execute a file (or stdin) of JSON simulation specs as one
    deduplicated, prioritised batch through the
    :mod:`repro.service` scheduler::

        python -m repro.cli batch specs.json --jobs 4 --cache-dir .cells

``serve``
    Run the batch scheduler as a service: JSON-per-line requests on
    stdin with results streamed to stdout in completion order, or
    (``--http [PORT]``) a loopback HTTP endpoint with ``POST /batch``,
    ``GET /metrics`` and ``GET /healthz``::

        printf '{"mix": "471+444"}\n' | python -m repro.cli serve

``spans``
    Summarise a span-trace JSONL file written by ``batch``/``serve``
    ``--spans PATH``: per-phase latency breakdown plus the top-N
    slowest cells, or (``--trace ID``) one trace rendered as a tree::

        python -m repro.cli spans spans.jsonl --top 5
        python -m repro.cli spans spans.jsonl --trace 0f3a9c2d11aa55ee

``verify``
    The verification harness (:mod:`repro.verify`).  Without flags,
    simulate the spec once with the runtime invariant checker attached
    and print its digest; with ``--grid``, execute it across every
    {cache backend} x {trace mode} x {execution path} combination and
    assert the eight result digests are identical::

        python -m repro.cli verify --mix 471+444 --grid --jobs 2

Simulation parameters (``--mix``, ``--scheme``, ``--quota``,
``--warmup``, ``--seed``) describe a :class:`repro.api.RunSpec`; each
command builds one spec and validates it through
:meth:`RunSpec.validate`, so every front-end rejects the same boundary
values with the same message.

``run``, ``experiment``, ``batch``, ``serve`` and ``calibrate`` accept
``--jobs N`` (simulate
independent cells across N worker processes), ``--cache-dir DIR``
(content-addressed on-disk result cache reused across invocations),
``--timeout SECONDS`` (per-attempt wall-clock limit at every
``--jobs``; an attempt past it is killed and the cell retried),
``--retries N`` (bounded retry with exponential backoff for
crashed/hung/corrupt cells), ``--report PATH`` (write the run's JSON
manifest — per-cell status, attempts, cache hits vs simulations —
there instead of next to the cache) and
``--metrics PATH`` (the same report in Prometheus text format:
per-cell timings, queue latency, worker utilization, cache hit rates).
An interrupted sweep (``Ctrl-C``/OOM) keeps every completed cell in the
cache; re-running the same command resumes, simulating only what
remains.  ``--trace-cache/--no-trace-cache`` (every simulating command)
toggles the materialized-trace layer — workload access traces drained
once and replayed bit-identically across repeats, sizes and schemes —
overriding the ``REPRO_TRACE_CACHE`` environment default (on).
``--sanitize`` (every simulating command) attaches the runtime
invariant checker from :mod:`repro.verify` — zero-cost when off,
``REPRO_SANITIZE=1`` is the environment equivalent.  The hidden ``REPRO_FAULT_PLAN`` environment variable (e.g.
``"crash=1,hang=1,seed=7"``) injects deterministic worker faults for
chaos runs; see :mod:`repro.execution.faults`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Mapping

from repro.api.spec import RunSpec, SpecError
from repro.execution.report import ExecutorError

# Each command imports what it runs: ``repro worker`` loads the
# execution core and the wire protocol, never the figure code.


def _cmd_schemes(_: argparse.Namespace) -> int:
    from repro.policies.registry import available_schemes

    for name in available_schemes():
        print(name)
    print("ascc/<sets-per-counter>   (Table 1 fixed granularities)")
    print("avgcc/<max-counters>      (Section 7 cost-limited variants)")
    print("shared                    (Section 6.1 banked shared LLC)")
    return 0


def _cmd_mixes(_: argparse.Namespace) -> int:
    from repro.workloads.mixes import MIX2, MIX4, mix_name

    print("2-core mixes:")
    for mix in MIX2:
        print(f"  {mix_name(mix)}")
    print("4-core mixes (Table 1):")
    for mix in MIX4:
        print(f"  {mix_name(mix)}")
    return 0


def _spec_error(message: str) -> SystemExit:
    """A :class:`SystemExit` that prints once and still carries its text.

    The message goes to stderr here; the returned exception exits with
    status 1 *silently* (its ``code`` is the int, its ``str()`` the
    message), so callers raising it never produce a duplicate line or a
    traceback.
    """
    print(f"error: {message}", file=sys.stderr)
    exc = SystemExit(message)
    exc.code = 1
    return exc


#: Spec field -> the CLI flag that sets it, for validation messages.
_FLAG_FOR_FIELD = {
    "mix": "--mix",
    "scheme": "--scheme",
    "quota": "--quota",
    "warmup": "--warmup",
    "seed": "--seed",
    "events": "--events",
    "trace_cache": "--trace-cache",
    "sanitize": "--sanitize",
}


def _spec_from_args(args: argparse.Namespace, **overrides) -> RunSpec:
    """Build and validate the one :class:`RunSpec` a subcommand describes.

    Every boundary check — mix shape, known codes, known scheme,
    positive quota, non-negative warmup/seed, known event kinds — is
    :meth:`RunSpec.validate`; this shim only maps the offending field
    back to its flag so the exit message points at what to retype.
    """
    params = dict(
        mix=args.mix,
        scheme=args.scheme,
        quota=args.quota,
        warmup=args.warmup,
        seed=args.seed,
        trace_cache=getattr(args, "trace_cache", None),
        sanitize=getattr(args, "sanitize", None),
    )
    params.update(overrides)
    try:
        return RunSpec(**params).validate()
    except SpecError as exc:
        flag = _FLAG_FOR_FIELD.get(exc.field)
        raise _spec_error(f"{flag}: {exc}" if flag else str(exc)) from None


def _session(args: argparse.Namespace):
    """A :class:`Session` carrying the orchestration flags every
    simulating command shares."""
    from repro.api.session import Session

    return Session(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        report_path=args.report,
        metrics_path=args.metrics,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads.mixes import mix_name

    spec = _spec_from_args(args)
    session = _session(args)
    session.prewarm([spec])
    outcome = session.outcome(spec)
    result = outcome.result
    breakdown = result.access_breakdown()
    print(f"mix {mix_name(spec.mix)} under {spec.scheme}:")
    print(f"  weighted speedup improvement : {outcome.speedup_improvement:+.2%}")
    print(f"  fairness improvement         : {outcome.fairness_improvement:+.2%}")
    print(f"  AML reduction                : {outcome.aml_improvement:+.2%}")
    print(f"  off-chip access reduction    : {outcome.offchip_reduction:+.2%}")
    print(
        f"  L2 local/remote/memory       : "
        f"{breakdown['local']:.1%} / {breakdown['remote']:.1%} / {breakdown['memory']:.1%}"
    )
    print(f"  spills {result.total_spills}, hits/spill {result.hits_per_spill:.2f}")
    for core in result.cores:
        print(
            f"  core{core.core_id}: CPI {core.cpi:.2f}, MPKI {core.mpki:.2f}, "
            f"off-chip MPKI {core.offchip_mpki:.2f}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, declared_cells

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    if names[0] not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}, all"
        )
    session = _session(args)
    cells = declared_cells(names)
    if cells:
        session.prewarm(cells)
    for name in names:
        experiment, params = EXPERIMENTS[name]
        print(experiment.format_result(experiment.render(session, **params)))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import calibrate, format_calibration
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(session=_session(args), quota=args.quota, warmup=args.warmup)
    print(format_calibration(calibrate(runner)))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_histogram, format_table
    from repro.api.session import Session

    spec = _spec_from_args(args)
    recorder = Session().stats(spec, interval=args.interval)
    if args.json is not None:
        from pathlib import Path

        Path(args.json).write_text(recorder.to_json(indent=2))
    for core_id, series in sorted(recorder.by_core().items()):
        rows = []
        for s in series:
            roles = (s.ssl or {}).get("roles") or {}
            d = (s.ssl or {}).get("granularity_log2")
            rows.append(
                [
                    s.index,
                    s.instructions,
                    f"{s.cpi:.3f}",
                    f"{s.mpki:.2f}",
                    f"{s.offchip_mpki:.2f}",
                    f"{s.spill_out_pki:.2f}",
                    f"{s.spill_in_pki:.2f}",
                    "-" if d is None else d,
                    "-"
                    if not roles
                    else f"{roles.get('receiver', 0)}/{roles.get('neutral', 0)}"
                    f"/{roles.get('spiller', 0)}",
                ]
            )
        print(
            format_table(
                ["#", "instr", "cpi", "mpki", "offchip", "out/ki", "in/ki", "D", "r/n/s"],
                rows,
                title=f"core{core_id} ({recorder.core_name(core_id)}), "
                f"every {recorder.interval} instructions:",
            )
        )
        last = series[-1].ssl
        if last and last.get("roles"):
            print(
                format_histogram(
                    "  final set roles:", sorted(last["roles"].items())
                )
            )
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api.session import Session

    kinds = None
    if args.events is not None:
        kinds = tuple(k.strip() for k in args.events.split(",") if k.strip())
    spec = _spec_from_args(args, events=kinds)
    tracer = Session().trace(spec, capacity=args.capacity)
    if args.output is not None:
        with open(args.output, "w") as stream:
            tracer.write_jsonl(stream)
    else:
        tracer.write_jsonl(sys.stdout)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(tracer.counts().items()))
    print(
        f"{len(tracer)} events ({tracer.emitted} emitted, "
        f"{tracer.dropped} dropped){': ' + counts if counts else ''}",
        file=sys.stderr,
    )
    return 0


def _load_spec_entries(text: str, source: str) -> list:
    """Spec entries from a batch file: a JSON array, ``{"specs": [...]}``
    wrapper, or JSONL (one object per line, ``#`` comments allowed)."""
    if not text.strip():
        raise _spec_error(f"{source}: no specs found (empty input)")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        entries = [
            json.loads(line)
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    else:
        if isinstance(payload, dict):
            entries = payload.get("specs", [payload])
        else:
            entries = payload
    if not isinstance(entries, list) or not entries:
        raise _spec_error(
            f"{source}: expected a JSON array of spec objects "
            f"(or JSONL, one spec per line)"
        )
    return entries


def _parse_batch_specs(text: str, source: str) -> tuple[list, list]:
    """``(specs, priorities)`` from batch-file text, validated."""
    specs, priorities = [], []
    for index, entry in enumerate(_load_spec_entries(text, source), start=1):
        try:
            if isinstance(entry, Mapping) and "spec" in entry:
                spec = RunSpec.from_dict(entry["spec"]).validate()
                priority = int(entry.get("priority", 0))
            else:
                spec = RunSpec.from_dict(entry).validate()
                priority = 0
        except (SpecError, TypeError, ValueError) as exc:
            raise _spec_error(f"{source}: spec #{index}: {exc}") from None
        specs.append(spec)
        priorities.append(priority)
    return specs, priorities


def _scheduler_flags(args: argparse.Namespace) -> dict:
    executor = getattr(args, "executor", "local")
    executor_options: dict = {}
    if executor == "cluster":
        executor_options["listen"] = getattr(args, "cluster_listen", "127.0.0.1:0")
    return dict(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        report_path=args.report,
        metrics_path=args.metrics,
        journal=args.journal,
        executor=executor,
        executor_options=executor_options,
        spans_path=getattr(args, "spans", None),
    )


def _announce_cluster(scheduler) -> None:
    """Print the coordinator's bound address so workers can be started."""
    executor = scheduler.executor
    if getattr(executor, "kind", "local") != "cluster":
        return
    host, port = executor.address
    print(
        f"repro: cluster coordinator on {host}:{port} — start workers "
        f"with: repro worker --connect {host}:{port}",
        file=sys.stderr,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from concurrent.futures import CancelledError

    from repro.api.session import result_summary
    from repro.service import BatchScheduler, JournalError

    if args.resume:
        if args.specs is not None:
            raise _spec_error("--resume replays the journal; do not also pass a specs file")
        if args.cache_dir is None:
            raise _spec_error(
                "--resume needs --cache-dir (the batch journal lives next "
                "to the result cache)"
            )
        scheduler = BatchScheduler(**_scheduler_flags(args))
        _announce_cluster(scheduler)
        try:
            summary = scheduler.resume_from_journal()
        except JournalError as exc:
            scheduler.close(drain=False)
            raise _spec_error(str(exc)) from None
        pairs = summary["futures"]
        print(
            f"resume: {summary['resumed']} outstanding spec(s) re-enqueued "
            f"({summary['cache_resident']} cache-resident, "
            f"{summary['done']} done in a previous run"
            + (
                f", {summary['corrupt_lines']} corrupt journal line(s) skipped"
                if summary["corrupt_lines"]
                else ""
            )
            + ")",
            file=sys.stderr,
        )
    else:
        if args.specs is None:
            raise _spec_error(
                "a specs file is required (or --resume with --cache-dir)"
            )
        if args.specs == "-":
            text, source = sys.stdin.read(), "<stdin>"
        else:
            try:
                with open(args.specs) as stream:
                    text = stream.read()
            except OSError as exc:
                raise _spec_error(f"cannot read {args.specs!r}: {exc}") from None
            source = args.specs
        try:
            specs, priorities = _parse_batch_specs(text, source)
        except json.JSONDecodeError as exc:
            raise _spec_error(f"{source}: not valid JSON: {exc}") from None
        scheduler = BatchScheduler(**_scheduler_flags(args))
        _announce_cluster(scheduler)
        pairs = []
        try:
            for spec, priority in zip(specs, priorities):
                pairs.append((spec, scheduler.submit(spec, priority=priority)))
        except BaseException:
            scheduler.close(drain=False)
            raise

    failures = 0
    try:
        for spec, future in pairs:
            try:
                outcome = future.result()
            except KeyboardInterrupt:
                raise
            except CancelledError:
                failures += 1
                print(f"{spec.name}: CANCELLED")
                continue
            except Exception as exc:  # noqa: BLE001 - surfaced per spec
                failures += 1
                print(f"{spec.name}: FAILED: {exc}")
                continue
            summary = result_summary(outcome)
            print(
                f"{spec.name}: digest {summary['digest'][:12]}  "
                f"spills {summary['spills']}  offchip {summary['offchip_accesses']}"
            )
        scheduler.close(drain=True)
    except KeyboardInterrupt:
        # The journal keeps every outstanding submission: close without
        # draining and the same command with --resume picks it back up.
        scheduler.close(drain=False)
        print(
            "interrupted — completed results are cached; rerun with "
            "--resume to finish the outstanding specs",
            file=sys.stderr,
        )
        return 130
    stats = scheduler.stats()
    print(
        f"batch: {stats.submitted} submitted — {stats.executed} simulated, "
        f"{stats.dedup_hits} deduplicated, {stats.cache_hits} cache hits, "
        f"{stats.failed} failed"
        + (f", {stats.recovered} recovered" if stats.recovered else ""),
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BatchScheduler, BatchHTTPServer, serve_jsonl

    scheduler = BatchScheduler(**_scheduler_flags(args))
    _announce_cluster(scheduler)
    try:
        if args.http is not None:
            server = BatchHTTPServer(("127.0.0.1", args.http), scheduler)
            host, port = server.server_address[:2]
            print(f"repro serve: listening on http://{host}:{port}", file=sys.stderr)
            try:
                server.serve_forever(poll_interval=0.1)
            finally:
                server.server_close()
            code = 0
        else:
            code = serve_jsonl(scheduler)
        scheduler.close(drain=True)
        return code
    except KeyboardInterrupt:
        # Cancel the queue, stop in-flight work at the next cell
        # boundary, keep everything already computed: the run report
        # and cache make a re-submission resume instead of redo.
        scheduler.close(drain=False)
        print(
            "interrupted — queued specs cancelled; completed results "
            "are in the cache and the run report",
            file=sys.stderr,
        )
        return 130


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster import run_worker

    try:
        return run_worker(args.connect, slots=args.slots, name=args.label)
    except KeyboardInterrupt:
        print("worker: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        print(f"worker: cannot reach coordinator {args.connect}: {exc}", file=sys.stderr)
        return 1


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs.spans import format_summary, format_trace_tree, load_spans

    try:
        records = load_spans(args.path)
    except OSError as exc:
        raise _spec_error(f"cannot read {args.path!r}: {exc}") from None
    except ValueError as exc:
        raise _spec_error(str(exc)) from None
    if not records:
        print("no spans recorded", file=sys.stderr)
        return 1
    if args.trace is not None:
        tree = format_trace_tree(records, args.trace)
        if not tree:
            raise _spec_error(
                f"no spans with trace_id {args.trace!r} in {args.path}"
            )
        print(tree)
        return 0
    print(format_summary(records, top=args.top))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.api.session import result_digest

    spec = _spec_from_args(args)
    if args.grid:
        from repro.verify import run_grid

        def progress(cell) -> None:
            print(f"  {cell.label:<24} {cell.digest[:16]}", file=sys.stderr)

        report = run_grid(spec, jobs=args.jobs, progress=progress)
        print(report.describe())
        return 0 if report.ok else 1

    from repro.execution.simulate import simulate_spec

    result = simulate_spec(spec.replace(sanitize=True))
    print(f"{spec.name}: sanitized run clean, digest {result_digest(result)}")
    return 0


def _positive_int(label: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} must be an integer, got {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(f"{label} must be positive, got {value}")
        return value

    return parse


def _nonnegative_int(label: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} must be an integer, got {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{label} must not be negative, got {value}"
            )
        return value

    return parse


def _positive_float(label: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} must be a number, got {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(f"{label} must be positive, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the repro CLI."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parallel_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=_positive_int("--jobs"),
            default=1,
            help="worker processes for independent simulations (default: 1, serial)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="directory for the on-disk simulation result cache",
        )
        p.add_argument(
            "--timeout",
            type=_positive_float("--timeout"),
            default=None,
            help="per-attempt wall-clock limit in seconds, at every --jobs: "
            "an attempt past it is killed and the cell retried "
            "(default: no limit)",
        )
        p.add_argument(
            "--retries",
            type=_nonnegative_int("--retries"),
            default=2,
            help="retry budget per cell for crashed/hung/corrupt "
            "simulations, with exponential backoff (default: 2)",
        )
        p.add_argument(
            "--report",
            default=None,
            metavar="PATH",
            help="write the run's JSON manifest (per-cell status, attempts, "
            "cache hits vs simulations) here; defaults to "
            "<cache-dir>/run_report.json when --cache-dir is set",
        )
        p.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write the run report in Prometheus text format here "
            "(per-cell timings, queue latency, worker utilization, "
            "result-cache hit rates)",
        )

    def add_durability_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--no-journal",
            dest="journal",
            action="store_false",
            default=True,
            help="disable the crash-safe batch journal (on by default "
            "when --cache-dir is set; required for --resume)",
        )

    def add_executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--executor",
            choices=("local", "cluster"),
            default="local",
            help="execution backend: 'local' runs cells on this host "
            "(a process pool when --jobs > 1 or --timeout is set); "
            "'cluster' leases cells to remote 'repro worker' processes "
            "over TCP (default: local)",
        )
        p.add_argument(
            "--cluster-listen",
            default="127.0.0.1:0",
            metavar="HOST:PORT",
            help="coordinator bind address for --executor cluster; "
            "port 0 picks a free one and the bound address is printed "
            "on stderr (default: 127.0.0.1:0)",
        )

    def add_spans_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spans",
            default=None,
            metavar="PATH",
            help="record an end-to-end span trace of the batch (queue "
            "wait, cache lookups, execution attempts, remote leases) "
            "and write it as JSONL here; inspect with 'repro spans PATH' "
            "(default: tracing off, zero overhead)",
        )

    def add_trace_cache_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-cache",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="materialize each workload's access trace once and "
            "replay it across repeats/sizes/schemes (bit-identical; "
            "default: on, or the REPRO_TRACE_CACHE environment variable)",
        )

    def add_sanitize_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--sanitize",
            action="store_true",
            default=None,
            help="attach the runtime invariant checker (repro.verify) to "
            "every simulation: MESI legality, L1 inclusion, recency-stack "
            "integrity, SSL bounds and spill conservation are validated "
            "as the run executes (default: off, or REPRO_SANITIZE=1)",
        )

    def add_spec_flags(p: argparse.ArgumentParser) -> None:
        """The flags describing one RunSpec, registered identically
        everywhere; boundary policing happens in ``RunSpec.validate``."""
        p.add_argument("--mix", required=True, help="e.g. 471+444")
        p.add_argument("--scheme", default="avgcc")
        p.add_argument("--quota", type=int, default=150_000)
        p.add_argument("--warmup", type=int, default=150_000)
        p.add_argument("--seed", type=int, default=7)

    sub.add_parser("schemes", help="list available schemes").set_defaults(fn=_cmd_schemes)
    sub.add_parser("mixes", help="list the paper's mixes").set_defaults(fn=_cmd_mixes)

    run_p = sub.add_parser("run", help="simulate one mix under one scheme")
    add_spec_flags(run_p)
    add_parallel_flags(run_p)
    add_trace_cache_flag(run_p)
    add_sanitize_flag(run_p)
    run_p.set_defaults(fn=_cmd_run)

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument(
        "name",
        help="the table or figure to regenerate (fig1, tab4, sec7, ...; an "
        "unknown name lists them all), or all (one batch)",
    )
    add_parallel_flags(exp_p)
    add_trace_cache_flag(exp_p)
    add_sanitize_flag(exp_p)
    exp_p.set_defaults(fn=_cmd_experiment)

    cal_p = sub.add_parser("calibrate", help="compare models against Table 3")
    cal_p.add_argument("--quota", type=_positive_int("--quota"), default=100_000)
    cal_p.add_argument("--warmup", type=_nonnegative_int("--warmup"), default=60_000)
    add_parallel_flags(cal_p)
    add_trace_cache_flag(cal_p)
    cal_p.set_defaults(fn=_cmd_calibrate)

    batch_p = sub.add_parser(
        "batch",
        help="run a file of JSON specs as one deduplicated batch",
    )
    batch_p.add_argument(
        "specs",
        nargs="?",
        default=None,
        help="path to a JSON array / {'specs': [...]} / JSONL file of "
        "RunSpec objects (mix, scheme, quota, ...); '-' reads stdin",
    )
    batch_p.add_argument(
        "--resume",
        action="store_true",
        help="replay the batch journal in --cache-dir instead of reading "
        "a specs file: re-enqueue every spec a previous (crashed or "
        "interrupted) run left outstanding",
    )
    add_parallel_flags(batch_p)
    add_durability_flags(batch_p)
    add_executor_flags(batch_p)
    add_spans_flag(batch_p)
    add_trace_cache_flag(batch_p)
    add_sanitize_flag(batch_p)
    batch_p.set_defaults(fn=_cmd_batch)

    serve_p = sub.add_parser(
        "serve",
        help="batch scheduler as a service (JSONL stdin, or --http)",
    )
    serve_p.add_argument(
        "--http",
        type=_nonnegative_int("--http"),
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="serve a loopback HTTP batch endpoint instead of JSONL "
        "stdio (POST /batch, GET /metrics, GET /healthz); "
        "omit PORT to pick a free one",
    )
    add_parallel_flags(serve_p)
    add_durability_flags(serve_p)
    add_executor_flags(serve_p)
    add_spans_flag(serve_p)
    add_trace_cache_flag(serve_p)
    add_sanitize_flag(serve_p)
    serve_p.set_defaults(fn=_cmd_serve)

    worker_p = sub.add_parser(
        "worker",
        help="join a batch coordinator as a remote execution worker",
    )
    worker_p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by "
        "'repro batch/serve --executor cluster'",
    )
    worker_p.add_argument(
        "--slots",
        type=_positive_int("--slots"),
        default=1,
        help="lanes this worker runs (default: 1): each is a process "
        "with its own coordinator connection running one lease at a "
        "time; a lane past its lease's timeout answers for it and is "
        "replaced",
    )
    worker_p.add_argument(
        "--label",
        default=None,
        metavar="NAME",
        help="worker name reported to the coordinator "
        "(default: hostname-pid)",
    )
    worker_p.set_defaults(fn=_cmd_worker)

    stats_p = sub.add_parser(
        "stats", help="per-core interval telemetry (MPKI/CPI/spills/SSL)"
    )
    add_spec_flags(stats_p)
    stats_p.add_argument(
        "--interval",
        type=_positive_int("--interval"),
        default=10_000,
        help="committed instructions between samples (default: 10000)",
    )
    stats_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the full time-series (with raw deltas and SSL "
        "snapshots) as JSON here",
    )
    add_trace_cache_flag(stats_p)
    add_sanitize_flag(stats_p)
    stats_p.set_defaults(fn=_cmd_stats)

    trace_p = sub.add_parser(
        "trace", help="typed event trace (spills, swaps, flips) as JSONL"
    )
    add_spec_flags(trace_p)
    trace_p.add_argument(
        "--events",
        default=None,
        metavar="KINDS",
        help="comma-separated kinds to keep (spill, swap, receive_flip, "
        "regrain, qos_throttle); default: all",
    )
    trace_p.add_argument(
        "--capacity",
        type=_positive_int("--capacity"),
        default=65_536,
        help="ring-buffer size; oldest events drop beyond it (default: 65536)",
    )
    trace_p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSONL here instead of stdout",
    )
    add_trace_cache_flag(trace_p)
    add_sanitize_flag(trace_p)
    trace_p.set_defaults(fn=_cmd_trace)

    spans_p = sub.add_parser(
        "spans",
        help="summarise a span-trace JSONL written by batch/serve --spans",
    )
    spans_p.add_argument(
        "path",
        help="span JSONL file written by 'repro batch --spans PATH' or "
        "'repro serve --spans PATH'",
    )
    spans_p.add_argument(
        "--top",
        type=_positive_int("--top"),
        default=10,
        help="slowest cells to list in the summary (default: 10)",
    )
    spans_p.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_ID",
        help="render this one trace as an indented span tree instead "
        "of the summary",
    )
    spans_p.set_defaults(fn=_cmd_spans)

    verify_p = sub.add_parser(
        "verify",
        help="verification harness: sanitized run, or the full "
        "differential grid (--grid)",
    )
    add_spec_flags(verify_p)
    verify_p.add_argument(
        "--grid",
        action="store_true",
        help="run the spec across {slot,dict} x {traces on,off} x "
        "{serial,batch} (8 cells) and assert every result "
        "digest is identical",
    )
    verify_p.add_argument(
        "--jobs",
        type=_positive_int("--jobs"),
        default=2,
        help="worker processes for the grid's batch cells (default: 2)",
    )
    add_trace_cache_flag(verify_p)
    verify_p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    trace_cache = getattr(args, "trace_cache", None)
    if trace_cache is not None:
        # The env variable is the process-wide default `env_enabled`
        # reads, and worker processes inherit it — so the flag reaches
        # every simulation path, spec-built or not.
        os.environ["REPRO_TRACE_CACHE"] = "1" if trace_cache else "0"
    if getattr(args, "sanitize", None):
        # Same propagation trick as the trace cache: the sanitizer's
        # env default reaches worker processes and spec-less paths.
        os.environ["REPRO_SANITIZE"] = "1"
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # The scheduler already flushed completed cells and printed the
        # resumable-state summary; exit with the conventional SIGINT code.
        print("interrupted", file=sys.stderr)
        return 130
    except ExecutorError as exc:
        # Completed cells are cached; only the listed ones are missing.
        print(f"error: {exc}", file=sys.stderr)
        print(exc.report.summary(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
