"""Figure 8: the headline four-core comparison."""

from benchmarks.conftest import run_once

from repro.experiments import fig8_fourcore


def test_fig8_fourcore(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig8_fourcore.run(runner))
    emit("fig8_fourcore", fig8_fourcore.format_result(result))
    geo = result.geomeans()
    # The paper's ordering: the proposed designs lead, DSR trails them.
    assert geo["avgcc"] > geo["dsr"]
    assert geo["ascc"] > geo["dsr"]
    assert geo["avgcc"] > 0.02
