"""Section 6.3: sensitivity to per-LLC stride prefetchers."""

from benchmarks.conftest import regenerate


def test_sec63_prefetch(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "sec63pf", "sec63_prefetch")
    geo = result.geomeans()
    # The gains persist in the presence of prefetchers.
    assert geo["avgcc"] > 0
    assert geo["ascc"] > 0
