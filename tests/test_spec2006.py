"""Benchmark model table sanity."""

import pytest

from repro.sim.config import ScaleModel
from repro.workloads.generators import LINE
from repro.workloads.spec2006 import (
    BENCHMARKS,
    FIGURE1_CODES,
    all_codes,
    benchmark,
)


def test_thirteen_models():
    assert len(BENCHMARKS) == 13
    assert all_codes() == sorted(BENCHMARKS)


def test_table3_reference_points():
    assert benchmark(429).table3_mpki == 40.1
    assert benchmark(429).table3_cpi == 10.4
    assert benchmark(444).table3_mpki == 1.0


def test_labels():
    assert benchmark(433).label == "433.milc"


def test_unknown_code_raises():
    with pytest.raises(KeyError):
        benchmark(999)


def test_component_weights_sum_to_one():
    for spec in BENCHMARKS.values():
        total = sum(c.weight for c in spec.components)
        assert total == pytest.approx(1.0, abs=1e-6), spec.label


def test_figure1_split():
    uppers = [c for c in FIGURE1_CODES if not benchmark(c).capacity_sensitive]
    lowers = [c for c in FIGURE1_CODES if benchmark(c).capacity_sensitive]
    assert len(uppers) == 4 and len(lowers) == 4


def test_instantiation_produces_trace():
    from random import Random

    inst = benchmark(471).instantiate(ScaleModel(), base=1 << 32)
    trace = iter(inst.source(Random(0)))
    records = [next(trace) for _ in range(100)]
    assert all(len(r) == 4 for r in records)
    assert all((1 << 32) // LINE <= r[2] < inst.line_limit for r in records)


def test_timing_attached():
    inst = benchmark(429).instantiate(ScaleModel(), base=0)
    assert inst.timing.base_cpi == benchmark(429).base_cpi
