"""Section 6.3: multithreaded kernels on 512 kB LLCs."""

from benchmarks.conftest import regenerate


def test_sec63_multithread(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "sec63mt", "sec63_multithread")
    geo = result.geomeans()
    assert geo["avgcc"] > -0.02  # never a meaningful loss
    assert geo["ascc"] > -0.02
