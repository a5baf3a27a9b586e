"""Figure 11: QoS-Aware AVGCC vs AVGCC at 2 cores."""

from benchmarks.conftest import regenerate


def test_fig11_qos(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig11", "fig11_qos")
    geo = result.geomeans()
    # QoS keeps the gains...
    assert geo["qos-avgcc"] > 0
    # ...and caps the worst-case loss at least as well as plain AVGCC.
    worst_qos = min(result.value(m, "qos-avgcc") for m in result.mixes)
    worst_avgcc = min(result.value(m, "avgcc") for m in result.mixes)
    assert worst_qos >= worst_avgcc - 0.02
