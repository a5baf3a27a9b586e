"""Microbenchmark: the simulation kernel, generating vs replaying traces.

Runs the paper's 4-core AVGCC configuration on the first Table 1 mix two
ways — with the trace cache off (every run generates its records from the
workload's block source) and on (records replay from the packed trace
memo) — and reports wall-clock time and trace records (accesses) per
second for both.

Before anything is recorded it asserts that the two paths produce
bit-identical statistics (per-core counters, bus traffic and L1
counters), so the benchmark doubles as a regression guard: a kernel or
trace-layer change that alters simulated behaviour fails here before it
can corrupt results.  It also records the memo's footprint
(``memo_bytes``, ``memo_bytes_per_record``) and fails when a record
costs more than :data:`MAX_BYTES_PER_RECORD` bytes.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_sim_kernel.py
    PYTHONPATH=src python benchmarks/perf/bench_sim_kernel.py --smoke

Appends a run to ``BENCH_sim_kernel.json`` (see ``--output``).  Exits
non-zero if the counters diverge.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple
from pathlib import Path

if __package__ in (None, ""):  # executed as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import trajectory
else:  # executed as a module (python -m benchmarks.perf.bench_sim_kernel)
    from benchmarks.perf import trajectory

from repro.policies.registry import make_policy
from repro.sim.config import ScaleModel, default_config
from repro.sim.engine import Engine
from repro.sim.system import PrivateHierarchy
from repro.workloads.mixes import MIX4, make_workloads
from repro.workloads.trace_cache import TraceCache

SCHEME = "avgcc"

#: Legs in timing order: trace cache off, then on.
LEGS = ("generated", "replayed")

#: Bytes one memoized record may cost (code byte + line address).
MAX_BYTES_PER_RECORD = 5


def _build_engine(codes, quota, warmup, seed, traces=None):
    scale = ScaleModel()
    workloads = make_workloads(codes, scale)
    if traces is not None:
        # Buffers grow to the run's record estimate here, before the
        # timed run; later repeats replay the warm memo, and best-of-N
        # reports the replay speed (the steady state of every sweep
        # after its first cell).
        workloads = traces.materialize_for_run(workloads, seed, quota, warmup)
    config = default_config(num_cores=len(codes), scale=scale, quota=quota, seed=seed)
    hierarchy = PrivateHierarchy(config, make_policy(SCHEME))
    return Engine(hierarchy, workloads, quota, seed, warmup)


def _snapshot(hierarchy):
    """All counters a kernel bug could disturb, as plain tuples."""
    return {
        "cores": [astuple(stats) for stats in hierarchy.stats],
        "traffic": astuple(hierarchy.traffic),
        "l1": [(l1.hits, l1.misses, l1.back_invalidations) for l1 in hierarchy.l1s],
    }


def _accesses(hierarchy) -> int:
    """Total trace records processed (raw L1 probes, warmup included)."""
    return sum(l1.hits + l1.misses for l1 in hierarchy.l1s)


def _run_once(codes, quota, warmup, seed, traces):
    """One timed simulation; returns (seconds, snapshot, accesses)."""
    engine = _build_engine(codes, quota, warmup, seed, traces)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return elapsed, _snapshot(engine.hierarchy), _accesses(engine.hierarchy)


def _run_legs(codes, quota, warmup, seed, repeats):
    """Time both legs with interleaved repeats (best-of-``repeats``).

    Alternating the legs means slow drift in machine speed (frequency
    scaling, background load) biases both equally instead of whichever
    leg happened to run last.
    """
    traces = {"generated": None, "replayed": TraceCache()}
    results: dict = {}
    for _ in range(repeats):
        for leg in LEGS:
            run = _run_once(codes, quota, warmup, seed, traces[leg])
            if leg not in results or run[0] < results[leg][0]:
                results[leg] = run
    return results, traces["replayed"]


def _memo_footprint(traces, codes, quota, warmup, seed):
    """Buffer bytes and records the replayed leg's memo holds."""
    entries = [
        traces.get(workload, core_id, seed, quota, warmup)
        for core_id, workload in enumerate(make_workloads(codes, ScaleModel()))
    ]
    return sum(e.nbytes for e in entries), sum(e.length for e in entries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quota", type=int, default=None, help="default 100000")
    parser.add_argument("--warmup", type=int, default=None, help="default 50000")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI: defaults become quota=4000, warmup=2000 "
        "(explicit flags still win)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_sim_kernel.json",
    )
    args = parser.parse_args(argv)
    quota, warmup = (4_000, 2_000) if args.smoke else (100_000, 50_000)
    if args.quota is None:
        args.quota = quota
    if args.warmup is None:
        args.warmup = warmup

    codes = MIX4[0]
    print(f"mix={codes} scheme={SCHEME} quota={args.quota} warmup={args.warmup}")

    results, traces = _run_legs(codes, args.quota, args.warmup, args.seed, args.repeats)
    (gen_s, gen_snap, accesses), (rep_s, rep_snap, rep_acc) = (
        results[leg] for leg in LEGS
    )
    if gen_snap != rep_snap:
        print("FAIL: generated and replayed runs disagree on statistics", file=sys.stderr)
        print(f"  generated: {gen_snap}", file=sys.stderr)
        print(f"  replayed:  {rep_snap}", file=sys.stderr)
        return 1
    assert accesses == rep_acc  # implied by the snapshot match
    memo_bytes, memo_records = _memo_footprint(
        traces, codes, args.quota, args.warmup, args.seed
    )
    per_record = memo_bytes / memo_records
    if per_record > MAX_BYTES_PER_RECORD:
        print(
            f"FAIL: the trace memo costs {per_record:.2f} bytes per record "
            f"(at most {MAX_BYTES_PER_RECORD})",
            file=sys.stderr,
        )
        return 1

    run = {
        "mix": list(codes),
        "scheme": SCHEME,
        "quota": args.quota,
        "warmup": args.warmup,
        "seed": args.seed,
        "repeats": args.repeats,
        "accesses": accesses,
        "generated": {"seconds": gen_s, "accesses_per_sec": accesses / gen_s},
        "replayed": {"seconds": rep_s, "accesses_per_sec": accesses / rep_s},
        "counters_identical": True,
        "memo_bytes": memo_bytes,
        "memo_bytes_per_record": per_record,
    }
    trajectory.append_run(args.output, "sim_kernel", run)

    print(f"generated: {gen_s:.3f}s  {accesses / gen_s:>12,.0f} accesses/s")
    print(f"replayed:  {rep_s:.3f}s  {accesses / rep_s:>12,.0f} accesses/s")
    print("counters identical: yes")
    print(f"memo: {memo_bytes:,} bytes, {per_record:.2f} bytes/record")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
