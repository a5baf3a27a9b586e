"""Figure 9: fairness (harmonic mean of normalised IPCs), 4 cores."""

from benchmarks.conftest import run_once

from repro.experiments import fig9_fairness


def test_fig9_fairness(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig9_fairness.run(runner))
    emit("fig9_fairness", fig9_fairness.format_result(result))
    geo = result.geomeans()
    # Speeding up mixed workloads does not hurt fairness.
    assert geo["avgcc"] > 0
    assert geo["ascc"] > 0
