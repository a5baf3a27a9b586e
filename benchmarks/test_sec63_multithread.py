"""Section 6.3: multithreaded kernels on 512 kB LLCs."""

from benchmarks.conftest import run_once

from repro.experiments import sec63_multithread


def test_sec63_multithread(benchmark, emit):
    result = run_once(benchmark, lambda: sec63_multithread.run())
    emit("sec63_multithread", sec63_multithread.format_result(result))
    geo = result.geomeans()
    assert geo["avgcc"] > -0.02  # never a meaningful loss
    assert geo["ascc"] > -0.02
