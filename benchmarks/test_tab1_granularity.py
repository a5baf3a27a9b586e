"""Table 1: the ASCC granularity sweep."""

from benchmarks.conftest import run_once

from repro.experiments import tab1_granularity


def test_tab1_granularity(benchmark, runner, emit):
    result = run_once(benchmark, lambda: tab1_granularity.run(runner))
    emit("tab1_granularity", tab1_granularity.format_result(result))
    geo = result.geomeans()
    # Every granularity improves on the baseline on the geomean, and the
    # best operating point is not the coarsest one.
    coarsest = geo[result.schemes[-1]]
    best = max(geo.values())
    assert best > 0
    assert best >= coarsest
