"""Figure 7: two-core scheme comparison over the 14 mixes."""

from benchmarks.conftest import run_once

from repro.experiments import fig7_twocore


def test_fig7_twocore(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig7_twocore.run(runner))
    emit("fig7_twocore", fig7_twocore.format_result(result))
    geo = result.geomeans()
    # ASCC/AVGCC land near the paper's +6.4%/+7.0% at 2 cores; DSR is
    # within a point of them here (the 4-core run separates them clearly).
    assert geo["avgcc"] > 0.03
    assert geo["ascc"] > 0.03
    assert geo["avgcc"] >= geo["dsr"] - 0.02
