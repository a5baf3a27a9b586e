"""Traces are bit-reproducible under the same seed and differ across seeds."""

from random import Random

from repro.sim.config import ScaleModel
from repro.workloads.multithread import make_threads
from repro.workloads.spec2006 import benchmark


def records(workload, seed, n=500):
    trace = iter(workload.source(Random(seed)))
    return [next(trace) for _ in range(n)]


def test_same_seed_same_trace():
    inst = benchmark(429).instantiate(ScaleModel(), base=1 << 32)
    assert records(inst, 5) == records(inst, 5)


def test_different_seed_different_trace():
    inst = benchmark(429).instantiate(ScaleModel(), base=1 << 32)
    assert records(inst, 5) != records(inst, 6)


def test_multithread_trace_deterministic():
    t = make_threads("fft", 2)[0]
    assert records(t, 3) == records(t, 3)


def test_gap_bounds_respected():
    inst = benchmark(433).instantiate(ScaleModel(), base=1 << 32)
    lo, hi = benchmark(433).gap
    for gap, _, _, _ in records(inst, 1, n=1000):
        assert lo <= gap <= hi
