"""Section 6.1: the shared-LLC comparison point."""

from benchmarks.conftest import run_once

from repro.experiments import sec61_shared
from repro.workloads.mixes import MIX4


def test_sec61_shared(benchmark, runner, emit):
    result = run_once(benchmark, lambda: sec61_shared.run(4, runner, mixes=MIX4))
    emit("sec61_shared", sec61_shared.format_result(result))
    geo = result.geomeans()
    # Explicit cooperation beats implicit sharing at bank-average latency.
    assert geo["avgcc"] > geo["shared"]
    assert geo["ascc"] > geo["shared"]
