"""End-to-end batch benchmark: shared materialized traces vs regeneration.

Runs a Table-4-style cross-size batch — one mix simulated at several L2
sizes under several schemes, every cell sharing one workload trace —
through the real :func:`repro.service.run_batch` scheduler twice:

``baseline``
    The trace cache disabled: every cell generates its records from the
    workloads' block sources.

``optimized``
    The materialized trace cache: the shared trace is drained once into
    column buffers and every cell replays them.

Before timing counts, the two legs' per-spec result digests are compared;
any divergence fails the benchmark, so it doubles as an end-to-end
bit-identity guard over the whole scheduler → runner → engine stack.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_batch.py
    PYTHONPATH=src python benchmarks/perf/bench_batch.py --smoke

Appends a run to ``BENCH_batch.json`` (see ``--output``).  Exits non-zero
if digests diverge or the improvement falls below ``--min-improvement``
(default 1.0: replaying must not be slower than regenerating).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # executed as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import trajectory
else:  # executed as a module (python -m benchmarks.perf.bench_batch)
    from benchmarks.perf import trajectory

from repro.api.session import result_digest
from repro.api.spec import RunSpec
from repro.service import run_batch
from repro.workloads.mixes import MIX2
from repro.workloads.trace_cache import ENV_FLAG

MB = 1 << 20
SIZES_MB = [1, 2, 4]
SCHEMES = ["avgcc", "baseline"]



def _grid(codes, quota, warmup, seed) -> list[RunSpec]:
    """The cross-size batch: every cell shares one (mix, seed) trace."""
    return [
        RunSpec(
            mix=codes,
            scheme=scheme,
            quota=quota,
            warmup=warmup,
            seed=seed,
            l2_paper_bytes=size_mb * MB,
        ).validate()
        for size_mb in SIZES_MB
        for scheme in SCHEMES
    ]


def _run_leg(kind: str, specs: list[RunSpec]) -> tuple[float, list[str]]:
    """One timed batch; returns (seconds, per-spec result digests)."""
    saved_env = os.environ.get(ENV_FLAG)
    os.environ[ENV_FLAG] = "0" if kind == "baseline" else "1"
    try:
        start = time.perf_counter()
        outcomes, stats, _report = run_batch(specs, jobs=1, retries=0)
        elapsed = time.perf_counter() - start
    finally:
        if saved_env is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = saved_env
    failures = [o for o in outcomes if isinstance(o, BaseException) or o is None]
    if failures:
        raise RuntimeError(f"{kind} batch failed: {failures[0]!r}")
    assert stats.executed == len(specs), "dedup/cache must not skip cells"
    return elapsed, [result_digest(result) for result in outcomes]


def _run_legs(specs, repeats):
    """Time both legs with interleaved repeats (best-of-``repeats``).

    The first optimized repeat pays trace materialization; later repeats
    replay the warm memo — the steady state of every sweep after its
    first cell — and best-of-N reports that.
    """
    results = {}
    for _ in range(repeats):
        for kind in ("baseline", "optimized"):
            elapsed, digests = _run_leg(kind, specs)
            if kind not in results or elapsed < results[kind][0]:
                results[kind] = (elapsed, digests)
    return results["baseline"], results["optimized"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quota", type=int, default=None, help="default 60000")
    parser.add_argument("--warmup", type=int, default=None, help="default 30000")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--min-improvement", type=float, default=1.0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run for CI: defaults become quota=3000, warmup=1500 "
        "(explicit flags still win)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_batch.json",
    )
    args = parser.parse_args(argv)
    quota, warmup = (3_000, 1_500) if args.smoke else (60_000, 30_000)
    if args.quota is None:
        args.quota = quota
    if args.warmup is None:
        args.warmup = warmup

    codes = MIX2[0]
    specs = _grid(codes, args.quota, args.warmup, args.seed)
    print(
        f"mix={codes} sizes={SIZES_MB}MB schemes={SCHEMES} "
        f"quota={args.quota} warmup={args.warmup} cells={len(specs)}"
    )

    (base_s, base_digests), (opt_s, opt_digests) = _run_legs(specs, args.repeats)

    if base_digests != opt_digests:
        print("FAIL: legs disagree on simulated results", file=sys.stderr)
        for spec, a, b in zip(specs, base_digests, opt_digests):
            mark = "  " if a == b else "!!"
            print(f"{mark} {spec.name}: {a[:12]} vs {b[:12]}", file=sys.stderr)
        return 1

    improvement = base_s / opt_s
    instructions = len(specs) * len(codes) * (args.quota + args.warmup)
    run = {
        "mix": list(codes),
        "schemes": SCHEMES,
        "sizes_mb": SIZES_MB,
        "cells": len(specs),
        "quota": args.quota,
        "warmup": args.warmup,
        "seed": args.seed,
        "repeats": args.repeats,
        "instructions": instructions,
        "baseline": {
            "seconds": base_s,
            "instructions_per_sec": instructions / base_s,
            "stack": "trace cache off: per-cell generation",
        },
        "optimized": {
            "seconds": opt_s,
            "instructions_per_sec": instructions / opt_s,
            "stack": "shared columnar trace buffers",
        },
        "improvement": improvement,
        "digests_identical": True,
    }
    trajectory.append_run(args.output, "batch", run)

    print(f"baseline:  {base_s:.3f}s  {instructions / base_s:>12,.0f} instr/s")
    print(f"optimized: {opt_s:.3f}s  {instructions / opt_s:>12,.0f} instr/s")
    print(f"improvement: {improvement:.2f}x  (digests identical: yes)")
    print(f"wrote {args.output}")

    if improvement < args.min_improvement:
        print(
            f"FAIL: improvement {improvement:.2f}x below required "
            f"{args.min_improvement:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
