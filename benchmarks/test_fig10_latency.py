"""Figure 10: normalised AML with local/remote/memory breakdown."""

from benchmarks.conftest import regenerate

from repro.workloads.mixes import mix_name


def test_fig10_latency(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig10", "fig10_latency")
    # Cooperation converts memory accesses into remote hits on the
    # donor+taker mixes, and AVGCC improves AML on the geomean.
    b = result.breakdowns[(mix_name((471, 444)), "avgcc")]
    assert b.remote_fraction > 0
    assert result.geomean_improvement("avgcc") > 0
    for key, breakdown in result.breakdowns.items():
        total = (
            breakdown.local_fraction
            + breakdown.remote_fraction
            + breakdown.memory_fraction
        )
        assert abs(total - 1.0) < 1e-6, key
