"""Figure 11: QoS-Aware AVGCC vs AVGCC at 2 cores."""

from benchmarks.conftest import run_once

from repro.experiments import fig11_qos


def test_fig11_qos(benchmark, runner, emit):
    result = run_once(benchmark, lambda: fig11_qos.run(runner))
    emit("fig11_qos", fig11_qos.format_result(result))
    geo = result.geomeans()
    # QoS keeps the gains...
    assert geo["qos-avgcc"] > 0
    # ...and caps the worst-case loss at least as well as plain AVGCC.
    worst_qos = min(result.value(m, "qos-avgcc") for m in result.mixes)
    worst_avgcc = min(result.value(m, "avgcc") for m in result.mixes)
    assert worst_qos >= worst_avgcc - 0.02
