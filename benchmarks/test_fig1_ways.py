"""Figure 1: MPKI/CPI vs enabled ways for the eight shown benchmarks."""

from benchmarks.conftest import regenerate

from repro.workloads.spec2006 import benchmark as benchmark_spec


def test_fig1_ways(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig1", "fig1_ways")
    for code, sweep in result.points.items():
        by_ways = {p.ways: p for p in sweep if not p.full_assoc}
        spec = benchmark_spec(code)
        if spec.capacity_sensitive:
            # Sensitive benchmarks improve substantially from 2 to 16 ways.
            assert by_ways[16].mpki < by_ways[2].mpki
        else:
            # Insensitive ones stay within a narrow band above 8 ways.
            assert by_ways[16].mpki > 0.25 * by_ways[8].mpki
