"""Figure 5: neutral-state ablations (ASCC-2S, DSR-3S)."""

from benchmarks.conftest import run_once

from repro.experiments import fig5_neutral


def test_fig5_neutral(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig5_neutral.run(runner))
    emit("fig5_neutral", fig5_neutral.format_result(result))
    geo = result.geomeans()
    assert geo["ascc"] > 0 and geo["ascc-2s"] > 0
    assert geo["dsr-3s"] != geo["dsr"]  # the 3-state variant behaves differently
