"""Figure 4: design-breakdown comparison on the four-app mixes."""

from benchmarks.conftest import regenerate


def test_fig4_breakdown(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig4", "fig4_breakdown")
    geo = result.geomeans()
    # Per-set management beats the global counter, and the full ASCC is
    # at least as good as the spill-only local designs.
    assert geo["lms"] > geo["gms"]
    assert geo["ascc"] >= geo["lms"] - 0.01
    assert geo["ascc"] > 0
