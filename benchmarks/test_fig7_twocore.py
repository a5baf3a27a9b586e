"""Figure 7: two-core scheme comparison over the 14 mixes."""

from benchmarks.conftest import regenerate


def test_fig7_twocore(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig7", "fig7_twocore")
    geo = result.geomeans()
    # ASCC/AVGCC land near the paper's +6.4%/+7.0% at 2 cores; DSR is
    # within a point of them here (the 4-core run separates them clearly).
    assert geo["avgcc"] > 0.03
    assert geo["ascc"] > 0.03
    assert geo["avgcc"] >= geo["dsr"] - 0.02
