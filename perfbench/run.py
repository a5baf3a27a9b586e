"""Layer-ledger benchmark: one named workload, end-to-end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig-sweep|l2-pressure|cluster-rtt \
        [--seed 7] [--seconds 30] [--trace 0|1]

The program is run from ``src/`` beside this directory; nothing is
installed.  Each round runs in a fresh interpreter (``round.py``), so
imports, the trace memo and the session cache start cold.  With
``--trace 0`` identical rounds fill about ``--seconds``; throughputs are
the fastest round's, set-up time and memory are medians.  With
``--trace 1`` one untraced and one traced round run, and the per-layer
metrics come from the traced one.

Every cell's result digest is checked against the committed table for
the default seed (``digests/seed-7.json``) or, for another seed, against
digests derived once on the reference path (dict cache backend, trace
cache off) and kept under ``.bench_build/``.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every cell resolved with the expected
digest; 2 when the program's sources are missing.

``--write-digests`` regenerates the committed table for ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from layers import L2_SIDE
from traced import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
COMMITTED = HERE / "digests"
WORKLOADS = ("fig-sweep", "l2-pressure", "cluster-rtt")

#: Nominal seconds of one round on a 2-core Xeon host.
ROUND_SECONDS = {"fig-sweep": 5.0, "l2-pressure": 7.5, "cluster-rtt": 8.0}
#: Round budget whose cells the committed digest table covers.
COMMITTED_BUDGET = 30.0
#: Setup samples per run (rounds plus setup-only interpreters).
SETUP_SAMPLES = 5
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT = 170
#: Environment switches that would change which code path runs.
PATH_SWITCHES = ("REPRO_CACHE_BACKEND", "REPRO_TRACE_CACHE", "REPRO_SANITIZE", "REPRO_FAULT_PLAN")

#: (name, unit) of every end-to-end metric a ``--trace 0`` run prints.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def child_env(reference: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PATH_SWITCHES}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if reference:
        env["REPRO_CACHE_BACKEND"] = "dict"
        env["REPRO_TRACE_CACHE"] = "0"
    return env


def run_child(args: list, *, stdin: str | None = None, reference: bool = False) -> dict:
    """Run ``round.py`` with ``args``; its last stdout line, parsed."""
    argv = [sys.executable, str(HERE / "round.py"), *args]
    try:
        proc = subprocess.run(
            argv,
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(reference),
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"round timed out after {CHILD_TIMEOUT}s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"round failed (exit {proc.returncode}): {' '.join(args)}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def build() -> None:
    """Byte-compile the sources once, so every round imports alike."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        cwd=ROOT,
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT,
    )


def round_args(ns, *, budget: float, trace: bool = False, setup_only: bool = False) -> list:
    args = ["--workload", ns.workload, "--seed", str(ns.seed), "--t0", repr(time.time()),
            "--budget", repr(budget)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    return args


def timed_rounds(ns) -> list:
    """Fresh-interpreter rounds filling about ``--seconds``.

    The round count and each round's budget depend only on
    ``--seconds``, never on how fast the rounds go, so every run of a
    workload does the same work.
    """
    count = max(1, round(ns.seconds / ROUND_SECONDS[ns.workload]))
    return [run_child(round_args(ns, budget=ns.seconds / count)) for _ in range(count)]


def setup_samples(ns, rounds: list) -> list:
    samples = [r["setup_s"] for r in rounds]
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_child(round_args(ns, budget=0, setup_only=True))["setup_s"])
    return samples


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #


def expected_digests(workload: str, seed: int, budget: float, names) -> dict:
    """Expected digest per cell: committed, cached, or derived now."""
    committed = COMMITTED / f"seed-{seed}.json"
    expected = {}
    if committed.is_file():
        expected.update(json.loads(committed.read_text()).get(workload, {}))
    cache = BUILD / "digests" / f"{workload}-seed-{seed}.json"
    if cache.is_file():
        expected.update(json.loads(cache.read_text()))
    missing = sorted(set(names) - set(expected))
    if missing:
        derived = derive(workload, seed, budget, missing)
        expected.update(derived)
        cache.parent.mkdir(parents=True, exist_ok=True)
        known = json.loads(cache.read_text()) if cache.is_file() else {}
        known.update(derived)
        cache.write_text(json.dumps(known, sort_keys=True, indent=0))
    return expected


def derive(workload: str, seed: int, budget: float, names: list) -> dict:
    """Digests of ``names`` (cells of rounds up to ``budget``) on the reference path."""
    out = run_child(
        ["--workload", workload, "--seed", str(seed), "--budget", repr(budget), "--reference"],
        stdin=json.dumps(names),
        reference=True,
    )
    return out["digests"]


def write_digests(seed: int) -> int:
    sys.path.insert(0, str(SRC))
    import round as workloads

    table = {}
    for workload in WORKLOADS:
        names = sorted(workloads.all_specs(workload, seed, COMMITTED_BUDGET))
        table[workload] = derive(workload, seed, COMMITTED_BUDGET, names)
    COMMITTED.mkdir(exist_ok=True)
    path = COMMITTED / f"seed-{seed}.json"
    path.write_text(json.dumps(table, sort_keys=True, indent=0) + "\n")
    print(f"wrote {sum(len(v) for v in table.values())} digests to {path}")
    return 0


def check(ns, rounds: list) -> dict:
    """Digest mismatches and failures over every round of this run."""
    names = {name for r in rounds for name in r["digests"]}
    expected = expected_digests(ns.workload, ns.seed, ns.seconds, names)
    bad = [stats.mismatches(r["digests"], expected) for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    failed_cells = sum(r["failed"] for r in rounds)
    mismatched = sum(len(cells) for cells in bad)
    return {
        "attempted": attempted,
        "failed": failed_cells + mismatched,
        "failed_frac": stats.failed_frac(failed_cells, mismatched, attempted),
        "mismatched_cells": sorted({name for cells in bad for name in cells})[:10],
    }


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def round_rates(r: dict) -> dict:
    phase_s = sum(r["phases"].values())
    out = {
        "sim_minstr_per_s": sum(r["instr"].values()) / phase_s / 1e6,
        "cells_per_s": sum(r["cells"].values()) / phase_s,
    }
    for phase in ("cold", "warm"):
        if phase in r["phases"]:
            out[f"{phase}_minstr_per_s"] = r["instr"][phase] / r["phases"][phase] / 1e6
    return out


def end_to_end(rounds: list, setups: list) -> tuple[dict, dict]:
    """(gated metrics, reported extras) of an untraced run."""
    rates = [round_rates(r) for r in rounds]
    # Rounds repeat identical work, and on a shared host noise only ever
    # slows a round down, so the fastest round is the steadiest estimate
    # of the program's own speed.
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_minstr_per_s": max(x["sim_minstr_per_s"] for x in rates),
        "cells_per_s": max(x["cells_per_s"] for x in rates),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    extras = {"round_minstr_per_s": [x["sim_minstr_per_s"] for x in rates]}
    for name in ("cold_minstr_per_s", "warm_minstr_per_s"):
        if name in rates[0]:
            extras[name] = max(x[name] for x in rates)
    cells = stats.summarize(ms for r in rounds for ms in r["cell_ms"])
    extras["cell_p50_ms"] = cells["p50"]
    if cells["tail"] is not None:
        extras[f"cell_p{cells['tail_pct']:g}_ms"] = cells["tail"]
    extras["cell_samples"] = cells["n"]
    return metrics, extras


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    """(per-layer metrics, design checks) of a traced run."""
    metrics = dict(traced["layers"])
    per_cell = [sum(r["phases"].values()) / sum(r["cells"].values()) for r in (plain, traced)]
    metrics["tracing.overhead_frac"] = per_cell[1] / per_cell[0] - 1.0
    ledger = traced["ledger"]
    wall = ledger["wall_s"]
    extras = {
        "traced_wall_s": wall,
        "unwrapped_s": ledger["unwrapped_s"],
        "l2_side_share": sum(ledger["self_s"][layer] for layer in L2_SIDE) / wall,
        "trace_share": ledger["self_s"]["trace"] / wall,
        "engine_share": ledger["self_s"]["engine"] / wall,
    }
    if "cold_gen_s" in traced and metrics["trace.gen_s"]:
        extras["cold_gen_share"] = traced["cold_gen_s"] / metrics["trace.gen_s"]
    if metrics["execute.ms_p50"]:
        rtt = statistics.median(traced["cell_ms"])
        extras["service_share_of_rtt"] = 1.0 - metrics["execute.ms_p50"] / rtt
    return metrics, extras


def traced_mismatches(plain: dict, traced: dict) -> list[str]:
    """Cells the traced round resolved with another digest than the untraced one."""
    common = set(plain["digests"]) & set(traced["digests"])
    return sorted(name for name in common if plain["digests"][name] != traced["digests"][name])


def fingerprint(rounds: list) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": rounds[0].get("numpy"),
        "commit": git_commit(),
        "env": {name: os.environ.get(name) for name in PATH_SWITCHES},
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def extra_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("minstr_per_s"):
        return "Minstr/s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    ns = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if ns.write_digests:
        return write_digests(ns.seed)
    if ns.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if ns.trace:
            plain = run_child(round_args(ns, budget=ns.seconds / 2))
            traced = run_child(round_args(ns, budget=ns.seconds / 2, trace=True))
            rounds = [plain, traced]
            metrics, extras = per_layer(plain, traced)
            units = dict(PER_LAYER)
        else:
            rounds = timed_rounds(ns)
            metrics, extras = end_to_end(rounds, setup_samples(ns, rounds))
            units = dict(END_TO_END)
        verdict = check(ns, rounds)
    except (ChildFailed, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if ns.trace:
        verdict["traced_mismatches"] = traced_mismatches(plain, traced)
        # Self times are disjoint by construction; more than the wall
        # time would mean overlapping threads were double counted.
        verdict["ledger_accounted"] = extras["unwrapped_s"] >= -0.01 * extras["traced_wall_s"]
    correct = (
        verdict["failed"] == 0
        and not verdict.get("traced_mismatches")
        and verdict.get("ledger_accounted", True)
    )
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "rounds": len(rounds),
        "host": fingerprint(rounds),
        "metrics": metrics,
        "extras": extras,
        **verdict,
    }
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "runs.jsonl", "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    for name, value in {**metrics, **extras}.items():
        if isinstance(value, (int, float)):
            print(f"{name} = {value:.6g} {units.get(name) or extra_unit(name)}")
    print(f"failed_frac = {verdict['failed_frac']:.6g} ratio")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
