"""Table 4: off-chip access reduction vs cache size."""

from benchmarks.conftest import regenerate


def test_tab4_sizes(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "tab4", "tab4_sizes")
    by_size = {r.size_mb: r for r in result}
    # The reduction shrinks as the cache grows, and the overhead is flat.
    assert by_size[1].reduction_4core > by_size[4].reduction_4core
    for row in result:
        assert 0.001 < row.storage_overhead < 0.004
