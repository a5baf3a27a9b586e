"""One round of one workload, in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/round.py --workload fig-sweep --seed 7 --t0 <epoch> \
        [--budget SECONDS] [--trace] [--setup-only]
    python3 perfbench/round.py --workload fig-sweep --seed 7 --reference < names.json

A round builds its workload (imports, grid validation, session or
scheduler, worker registration), reports ``setup_s`` measured from
``--t0`` (the parent's clock just before it spawned this process), runs
the timed phases, and prints one JSON object as its last stdout line:
phase times, simulated instructions, per-cell times, every cell's result
digest, failures and peak RSS.  ``--trace`` also installs the layer
wrappers and a ``SpanTracer`` and adds the per-layer metrics.

``--reference`` reads a JSON list of cell names on stdin and prints their
digests simulated one by one through ``Session.result``; the parent runs
it with the reference cache backend and the trace cache off.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, wait
from pathlib import Path

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------- #
# Workload inputs
# ---------------------------------------------------------------------- #

KB = 1024

#: Every non-baseline scheme of the figure sweep: the policy registry's
#: fixed names plus the banked shared LLC.
SWEEP_SCHEMES = (
    "cc", "dsr", "dsr-3s", "dsr+dip", "ecc", "lrs", "lms", "gms", "lms+bip",
    "gms+sabip", "ascc", "ascc-2s", "ascc-noswap", "avgcc", "qos-avgcc", "shared",
)

#: fig-sweep: a 2-core and a 4-core mix at the paper's 1 MB L2.
SWEEP_MIXES = ((429, 401), (445, 401, 444, 456))
SWEEP_L2 = 1024 * KB
SWEEP_LENGTH = 20_000

#: l2-pressure: two 4-core mixes at a 256 KB L2, spill-heavy schemes.
PRESSURE_MIXES = ((445, 401, 444, 456), (433, 471, 473, 482))
PRESSURE_SCHEMES = ("baseline", "cc", "dsr", "ecc", "ascc", "avgcc")
PRESSURE_L2 = 256 * KB
PRESSURE_LENGTH = 30_000

#: cluster-rtt: short two-core cells over loopback.
RTT_MIXES = (
    (429, 401), (429, 444), (471, 444), (473, 445), (450, 458), (456, 444),
    (401, 445), (433, 471), (462, 473), (482, 429), (433, 462), (444, 445),
    (471, 473), (470, 450),
)
RTT_SCHEMES = ("baseline", "avgcc", "ascc", "dsr")
#: L2 sizes (KB) the cells also vary over: a trace stream depends on
#: mix, seed and run length but not on the L2, so the worker's trace
#: memo stops growing after the first 14 mixes instead of with the
#: number of cells a run reaches.
RTT_L2_KB = (1024, 512, 256, 2048, 128, 4096, 64, 8192, 32, 16384)
RTT_QUOTA, RTT_WARMUP = 4000, 2000
#: Cells held outstanding by the closed loop (= the worker's slots).
RTT_OUTSTANDING = 2
#: Submissions per second of ``--budget``: a round's work is fixed by
#: its budget, not by how fast it goes, so every round of a given budget
#: resolves the same cells.  Every fourth submission repeats a spec.
RTT_RATE = 45

WORKLOADS = ("fig-sweep", "l2-pressure", "cluster-rtt")


def cell_name(spec) -> str:
    mix = "+".join(str(code) for code in spec.mix)
    return (
        f"{mix}/{spec.scheme}/{spec.l2_paper_bytes // KB}K"
        f"/q{spec.quota}w{spec.warmup}/s{spec.seed}"
    )


def instructions(spec) -> int:
    return len(spec.mix) * (spec.quota + spec.warmup)


def sweep_specs(seed: int):
    """(cold, warm, standalone) spec lists of fig-sweep."""
    from repro.api import RunSpec

    params = dict(quota=SWEEP_LENGTH, warmup=SWEEP_LENGTH, seed=seed, l2_paper_bytes=SWEEP_L2)
    cold = [RunSpec(mix=mix, scheme="baseline", **params) for mix in SWEEP_MIXES]
    warm = [RunSpec(mix=mix, scheme=s, **params) for mix in SWEEP_MIXES for s in SWEEP_SCHEMES]
    codes = dict.fromkeys(code for mix in SWEEP_MIXES for code in mix)
    alone = [RunSpec(mix=(code,), scheme="baseline", **params) for code in codes]
    return cold, warm, alone


def pressure_specs(seed: int):
    from repro.api import spec_grid

    return spec_grid(
        PRESSURE_MIXES,
        PRESSURE_SCHEMES,
        quota=PRESSURE_LENGTH,
        warmup=PRESSURE_LENGTH,
        seed=seed,
        l2_paper_bytes=PRESSURE_L2,
    )


def rtt_plan(seed: int, length: int) -> list:
    """The closed loop's submission sequence: ``(spec, is_repeat)``.

    New specs come in blocks of every (mix x scheme) pair in a seeded
    order.  Block ``b`` gives pair ``i`` of the fixed product the L2 size
    ``RTT_L2_KB[(i + b) % 10]``, so each block holds every size about
    equally often and ten blocks hold every (mix, scheme, size) cell
    once; then the spec seed advances.  Every fourth submission repeats a
    seeded pick among the specs submitted at least three places earlier.
    """
    from repro.api import RunSpec

    rng = random.Random(seed)
    pairs = [(mix, scheme) for mix in RTT_MIXES for scheme in RTT_SCHEMES]
    fresh: list = []
    plan: list = []
    block = 0
    while len(plan) < length:
        if len(plan) % 4 == 3:
            plan.append((plan[rng.randrange(len(plan) - 2)][0], True))
            continue
        if not fresh:
            passes, offset = divmod(block, len(RTT_L2_KB))
            fresh = [
                RunSpec(mix=mix, scheme=scheme, quota=RTT_QUOTA, warmup=RTT_WARMUP,
                        seed=seed + passes,
                        l2_paper_bytes=RTT_L2_KB[(i + offset) % len(RTT_L2_KB)] * KB)
                for i, (mix, scheme) in enumerate(pairs)
            ]
            rng.shuffle(fresh)
            block += 1
        plan.append((fresh.pop(), False))
    return plan


def all_specs(workload: str, seed: int, budget: float) -> dict:
    """``name -> spec`` for every cell a round of ``workload`` may resolve."""
    if workload == "fig-sweep":
        specs = [spec for group in sweep_specs(seed) for spec in group]
    elif workload == "l2-pressure":
        specs = pressure_specs(seed)
    else:
        specs = [spec for spec, _ in rtt_plan(seed, int(budget * RTT_RATE))]
    return {cell_name(spec): spec for spec in specs}


# ---------------------------------------------------------------------- #
# Rounds
# ---------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


class Round:
    """Shared bookkeeping of one round."""

    def __init__(self, args) -> None:
        self.args = args
        self.t0 = args.t0
        self.phases: dict = {}
        self.instr: dict = {}
        self.cells: dict = {}
        self.cell_ms: list = []
        self.digests: dict = {}
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.setup_s = None
        self.ledger = None
        self.tracer = None
        #: ``(ServiceStats, RunReport)`` of the service workloads.
        self.service = (None, None)
        self.extra: dict = {}

    def ready(self) -> None:
        self.setup_s = time.time() - self.t0

    # Phase hooks: the traced round (see traced.attach) replaces them.
    def begin(self) -> None:
        pass

    def mark(self, phase: str) -> None:
        pass

    def end(self) -> None:
        pass

    def add_result(self, spec, result) -> None:
        from repro.api import result_digest

        self.digests[cell_name(spec)] = result_digest(result)
        self.results.append(result)

    def output(self) -> dict:
        out = {
            "setup_s": self.setup_s,
            "phases": self.phases,
            "instr": self.instr,
            "cells": self.cells,
            "cell_ms": self.cell_ms,
            "digests": self.digests,
            "attempted": self.attempted,
            "failed": self.failed,
            "rss_mb": peak_rss_mb(),
            "numpy": _numpy_version(),
        }
        out.update(self.extra)
        return out


def fig_sweep(rnd: Round) -> None:
    from repro.api import Session

    cold, warm, alone = sweep_specs(rnd.args.seed)
    for spec in cold + warm:
        spec.validate()
    session = Session(jobs=1)
    rnd.ready()
    if rnd.args.setup_only:
        return
    rnd.begin()
    for phase, specs in (("cold", cold), ("warm", warm)):
        started = time.perf_counter()
        for spec in specs:
            cell_started = time.perf_counter()
            try:
                session.outcome(spec)
            except Exception:  # noqa: BLE001 - counted, not raised
                rnd.failed += 1
            rnd.cell_ms.append((time.perf_counter() - cell_started) * 1e3)
        rnd.phases[phase] = time.perf_counter() - started
        rnd.cells[phase] = len(specs)
        rnd.mark(phase)
    rnd.end()
    rnd.instr["cold"] = sum(instructions(spec) for spec in cold + alone)
    rnd.instr["warm"] = sum(instructions(spec) for spec in warm)
    rnd.attempted = len(cold) + len(warm)
    # Already simulated above: ``result`` reads the session's memo.
    for spec in cold + warm + alone:
        try:
            rnd.add_result(spec, session.result(spec))
        except Exception:  # noqa: BLE001 - its outcome already failed
            pass


def l2_pressure(rnd: Round) -> None:
    from repro.api import run_batch

    specs = pressure_specs(rnd.args.seed)
    for spec in specs:
        spec.validate()
    rnd.ready()
    if rnd.args.setup_only:
        return
    kwargs = {"tracer": rnd.tracer} if rnd.tracer is not None else {}
    rnd.begin()
    started = time.perf_counter()
    outcomes, stats, report = run_batch(specs, jobs=1, **kwargs)
    rnd.phases["main"] = time.perf_counter() - started
    rnd.end()
    rnd.cells["main"] = len(specs)
    rnd.cell_ms.extend(rec.duration * 1e3 for rec in report.records.values())
    rnd.attempted = len(specs)
    rnd.instr["main"] = 0
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, Exception):
            rnd.failed += 1
            continue
        rnd.instr["main"] += instructions(spec)
        rnd.add_result(spec, outcome)
    rnd.service = (stats, report)


def cluster_rtt(rnd: Round) -> None:
    from repro.api import BatchScheduler

    plan = rtt_plan(rnd.args.seed, int(rnd.args.budget * RTT_RATE))
    for spec, _ in plan:
        spec.validate()
    scratch = HERE.parent / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="rtt-", dir=scratch)
    kwargs = {"tracer": rnd.tracer} if rnd.tracer is not None else {}
    scheduler = BatchScheduler(
        executor="cluster",
        executor_options={"listen": "127.0.0.1:0"},
        cache_dir=cache_dir,
        **kwargs,
    )
    host, port = scheduler.executor.address
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--connect", f"{host}:{port}",
         "--slots", str(RTT_OUTSTANDING)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    drained = False
    try:
        deadline = time.monotonic() + 60
        while scheduler.stats().workers_connected < 1:
            if worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("worker did not register with the coordinator")
            time.sleep(0.005)
        rnd.ready()
        if not rnd.args.setup_only:
            rnd.begin()
            _closed_loop(rnd, scheduler, plan)
            rnd.end()
            rnd.service = (scheduler.stats(), scheduler.report)
        drained = True
    finally:
        scheduler.close(drain=drained)
        try:
            worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _closed_loop(rnd: Round, scheduler, plan) -> None:
    outstanding: dict = {}
    resolved: dict = {}
    executed = 0
    submitted = 0
    started = time.perf_counter()

    def submit() -> None:
        nonlocal submitted
        spec, repeat = plan[submitted]
        submitted += 1
        outstanding[scheduler.submit(spec)] = (spec, repeat, time.perf_counter())

    while submitted < RTT_OUTSTANDING:
        submit()
    while outstanding:
        done, _ = wait(list(outstanding), return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        for future in done:
            spec, repeat, submitted_at = outstanding.pop(future)
            rnd.cell_ms.append((now - submitted_at) * 1e3)
            rnd.attempted += 1
            try:
                result = future.result()
            except Exception:  # noqa: BLE001 - counted, not raised
                rnd.failed += 1
                continue
            if not repeat:
                executed += 1
            resolved[spec] = result
        while len(outstanding) < RTT_OUTSTANDING and submitted < len(plan):
            submit()
    rnd.phases["main"] = time.perf_counter() - started
    rnd.cells["main"] = rnd.attempted
    rnd.instr["main"] = executed * len(RTT_MIXES[0]) * (RTT_QUOTA + RTT_WARMUP)
    for spec, result in resolved.items():
        rnd.add_result(spec, result)
    rnd.extra["repeats"] = sum(1 for _, repeat in plan[:submitted] if repeat)


RUNNERS = {"fig-sweep": fig_sweep, "l2-pressure": l2_pressure, "cluster-rtt": cluster_rtt}


def reference(workload: str, seed: int, budget: float, names: list) -> dict:
    """Digests of ``names``, each simulated on its own through ``Session``."""
    from repro.api import Session, result_digest

    specs = all_specs(workload, seed, budget)
    session = Session(jobs=1)
    return {name: result_digest(session.result(specs[name])) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--budget", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if args.reference:
        names = json.load(sys.stdin)
        print(json.dumps({"digests": reference(args.workload, args.seed, args.budget, names)}))
        return 0
    if args.t0 is None:
        args.t0 = time.time()
    rnd = Round(args)
    if args.trace:
        import traced

        traced.attach(rnd)
    RUNNERS[args.workload](rnd)
    if args.trace and not args.setup_only:
        rnd.extra["layers"] = traced.layer_metrics(rnd)
    print(json.dumps(rnd.output()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
