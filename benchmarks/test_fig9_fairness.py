"""Figure 9: fairness (harmonic mean of normalised IPCs), 4 cores."""

from benchmarks.conftest import regenerate


def test_fig9_fairness(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig9", "fig9_fairness")
    geo = result.geomeans()
    # Speeding up mixed workloads does not hurt fairness.
    assert geo["avgcc"] > 0
    assert geo["ascc"] > 0
