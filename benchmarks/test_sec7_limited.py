"""Section 7: cost-limited AVGCC variants."""

from benchmarks.conftest import run_once

from repro.experiments import sec7_limited


def test_sec7_limited(benchmark, runner, emit):
    rows = run_once(benchmark, lambda: sec7_limited.run(runner))
    emit("sec7_limited", sec7_limited.format_result(rows))
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["avgcc/128"].extra_storage_bytes == 83
    assert by_scheme["avgcc/2048"].extra_storage_bytes == 1284
    # Even the 83-byte variant retains a positive geomean.
    assert by_scheme["avgcc/128"].geomean_improvement > 0
