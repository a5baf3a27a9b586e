"""Figure 4: design-breakdown comparison on the four-app mixes."""

from benchmarks.conftest import run_once

from repro.experiments import fig4_breakdown


def test_fig4_breakdown(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig4_breakdown.run(runner))
    emit("fig4_breakdown", fig4_breakdown.format_result(result))
    geo = result.geomeans()
    # Per-set management beats the global counter, and the full ASCC is
    # at least as good as the spill-only local designs.
    assert geo["lms"] > geo["gms"]
    assert geo["ascc"] >= geo["lms"] - 0.01
    assert geo["ascc"] > 0
