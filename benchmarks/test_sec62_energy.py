"""Section 6.2: memory-hierarchy energy reduction."""

from benchmarks.conftest import regenerate


def test_sec62_energy(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "sec62", "sec62_energy")
    geo = result.geomeans()
    # The paper reports ~29% for AVGCC at 4 cores; the reduction must be
    # substantial and track the off-chip savings.
    assert geo["avgcc"] > 0.02
    assert geo["ascc"] > 0.02
