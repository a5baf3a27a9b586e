"""Section 6.2: memory-hierarchy energy reduction."""

from benchmarks.conftest import run_once

from repro.experiments import sec62_energy


def test_sec62_energy(benchmark, runner, emit):
    result = run_once(benchmark, lambda: sec62_energy.run(4, runner))
    emit("sec62_energy", sec62_energy.format_result(result))
    geo = result.geomeans()
    # The paper reports ~29% for AVGCC at 4 cores; the reduction must be
    # substantial and track the off-chip savings.
    assert geo["avgcc"] > 0.02
    assert geo["ascc"] > 0.02
