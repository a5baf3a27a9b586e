"""Figure 8: the headline four-core comparison."""

from benchmarks.conftest import regenerate


def test_fig8_fourcore(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig8", "fig8_fourcore")
    geo = result.geomeans()
    # The paper's ordering: the proposed designs lead, DSR trails them.
    assert geo["avgcc"] > geo["dsr"]
    assert geo["ascc"] > geo["dsr"]
    assert geo["avgcc"] > 0.02
