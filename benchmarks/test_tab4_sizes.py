"""Table 4: off-chip access reduction vs cache size."""

from benchmarks.conftest import run_once

from repro.experiments import tab4_sizes
from repro.workloads.mixes import MIX2, MIX4


def test_tab4_sizes(benchmark, emit):
    result = run_once(
        benchmark,
        lambda: tab4_sizes.run(
            sizes_mb=[1, 2, 4], mixes4=MIX4[:3], mixes2=MIX2[:5],
            quota=100_000, warmup=100_000,
        ),
    )
    emit("tab4_sizes", tab4_sizes.format_result(result))
    by_size = {r.size_mb: r for r in result}
    # The reduction shrinks as the cache grows, and the overhead is flat.
    assert by_size[1].reduction_4core > by_size[4].reduction_4core
    for row in result:
        assert 0.001 < row.storage_overhead < 0.004
