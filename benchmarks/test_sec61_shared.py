"""Section 6.1: the shared-LLC comparison point."""

from benchmarks.conftest import regenerate


def test_sec61_shared(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "sec61", "sec61_shared")
    geo = result.geomeans()
    # Explicit cooperation beats implicit sharing at bank-average latency.
    assert geo["avgcc"] > geo["shared"]
    assert geo["ascc"] > geo["shared"]
