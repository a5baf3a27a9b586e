"""Observability overhead regression: observers must be free when off.

Not collected by the default test run (``testpaths = ["tests"]``); CI
invokes it explicitly next to the kernel benchmark smoke::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_obs_overhead.py

Three guards:

* **Bit-identity** — attaching no observer, an explicit ``None``, the
  inert :class:`~repro.obs.Observer` base class, or a fully active
  recorder+tracer composite must all produce *identical* simulation
  statistics.  Observation is read-only by contract; any divergence
  means an emission site mutated simulated state.
* **Throughput** — the disabled path folds the sampling deadline into
  an existing compare, so a run with no observer must not be slower
  than the pre-observability kernel beyond timing noise.  The band is
  deliberately lenient and env-tunable (``REPRO_OBS_BAND``, default
  1.5x) because CI machines are noisy; the point is catching a hot-path
  regression (2x+), not benchmarking.
* **Kernel benchmark** — ``bench_sim_kernel --smoke`` still passes
  (generated vs replayed counter identity), and its replay throughput
  stays within an env-tunable factor (``REPRO_PERF_BAND``, default 8x)
  of the latest committed full run in ``BENCH_sim_kernel.json`` — smoke
  runs are setup-dominated, so the default only catches
  order-of-magnitude collapses.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import astuple
from pathlib import Path

from benchmarks.perf import bench_sim_kernel
from repro.api import RunSpec
from repro.execution.simulate import simulate_spec
from repro.obs import CompositeObserver, EventTracer, IntervalRecorder, Observer

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "BENCH_sim_kernel.json"

MIX = (471, 444)
QUOTA, WARMUP, SEED = 6_000, 2_000, 7


def _signature(result):
    return (
        [astuple(stats) for stats in result.cores],
        astuple(result.traffic),
    )


def test_observer_variants_are_bit_identical():
    spec = RunSpec(mix=MIX, scheme="avgcc", quota=QUOTA, warmup=WARMUP, seed=SEED)
    bare = simulate_spec(spec)
    variants = {
        "observer=None": None,
        "inert Observer()": Observer(),
        "active composite": CompositeObserver(
            [IntervalRecorder(interval=500), EventTracer()]
        ),
    }
    expected = _signature(bare)
    for label, observer in variants.items():
        result = simulate_spec(spec, observer=observer)
        assert _signature(result) == expected, f"{label} changed simulated state"


def test_disabled_observer_throughput_within_band():
    band = float(os.environ.get("REPRO_OBS_BAND", "1.5"))
    spec = RunSpec(mix=MIX, scheme="ascc", quota=QUOTA, warmup=WARMUP, seed=SEED)

    def best_of(n, observer):
        best = float("inf")
        for _ in range(n):
            start = time.perf_counter()
            simulate_spec(spec, observer=observer)
            best = min(best, time.perf_counter() - start)
        return best

    best_of(1, None)  # warm the trace/model caches off the clock
    disabled = best_of(3, None)
    noop = best_of(3, Observer())
    assert noop <= disabled * band, (
        f"no-op observer run took {noop:.3f}s vs {disabled:.3f}s disabled "
        f"(band {band}x) — the observer hot path regressed"
    )


def test_kernel_benchmark_smoke_and_throughput_band(tmp_path):
    out = tmp_path / "bench_smoke.json"
    assert bench_sim_kernel.main(["--smoke", "--output", str(out)]) == 0
    smoke = json.loads(out.read_text())["latest"]
    assert smoke["counters_identical"] is True

    baseline = json.loads(BASELINE.read_text())["latest"]
    band = float(os.environ.get("REPRO_PERF_BAND", "8.0"))
    smoke_aps = smoke["replayed"]["accesses_per_sec"]
    base_aps = baseline["replayed"]["accesses_per_sec"]
    assert smoke_aps * band >= base_aps, (
        f"smoke throughput {smoke_aps:,.0f} accesses/s is more than {band}x "
        f"below the committed baseline {base_aps:,.0f} — kernel collapsed"
    )
