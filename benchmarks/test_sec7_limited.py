"""Section 7: cost-limited AVGCC variants."""

from benchmarks.conftest import regenerate


def test_sec7_limited(benchmark, session, emit):
    rows = regenerate(benchmark, session, emit, "sec7", "sec7_limited")
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["avgcc/128"].extra_storage_bytes == 83
    assert by_scheme["avgcc/2048"].extra_storage_bytes == 1284
    # Even the 83-byte variant retains a positive geomean.
    assert by_scheme["avgcc/128"].geomean_improvement > 0
