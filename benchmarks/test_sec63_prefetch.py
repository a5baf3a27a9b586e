"""Section 6.3: sensitivity to per-LLC stride prefetchers."""

from benchmarks.conftest import run_once

from repro.experiments import sec63_prefetch
from repro.workloads.mixes import MIX4


def test_sec63_prefetch(benchmark, emit):
    result = run_once(benchmark, lambda: sec63_prefetch.run(4, mixes=MIX4))
    emit("sec63_prefetch", sec63_prefetch.format_result(result))
    geo = result.geomeans()
    # The gains persist in the presence of prefetchers.
    assert geo["avgcc"] > 0
    assert geo["ascc"] > 0
