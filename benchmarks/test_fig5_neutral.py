"""Figure 5: neutral-state ablations (ASCC-2S, DSR-3S)."""

from benchmarks.conftest import regenerate


def test_fig5_neutral(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig5", "fig5_neutral")
    geo = result.geomeans()
    assert geo["ascc"] > 0 and geo["ascc-2s"] > 0
    assert geo["dsr-3s"] != geo["dsr"]  # the 3-state variant behaves differently
