"""ExperimentRunner: caching, normalisation, shared scheme."""

import pytest

from repro.experiments.runner import ExperimentRunner, run_mix


def small_runner(**kw):
    defaults = dict(quota=8_000, warmup=4_000)
    defaults.update(kw)
    return ExperimentRunner(**defaults)


def test_results_are_cached():
    r = small_runner()
    first = r.run((444, 445), "baseline")
    second = r.run((444, 445), "baseline")
    assert first is second


def test_alone_ipc_positive_and_cached():
    r = small_runner()
    ipc = r.alone_ipc(444)
    assert ipc > 0
    assert r.alone_ipc(444) == ipc


def test_outcome_baseline_is_zero_improvement():
    r = small_runner()
    out = r.outcome((444, 445), "baseline")
    assert out.speedup_improvement == pytest.approx(0.0)
    assert out.fairness_improvement == pytest.approx(0.0)
    assert out.aml_improvement == pytest.approx(0.0)
    assert out.offchip_reduction == pytest.approx(0.0)


def test_shared_scheme_builds_shared_hierarchy():
    r = small_runner()
    res = r.run((444, 445), "shared")
    assert res.scheme == "shared"
    assert all(c.l2_remote_hits == 0 for c in res.cores)


def test_run_mix_wrapper():
    runner = small_runner()
    out = run_mix(runner.spec((444, 445), "baseline"), runner=runner)
    assert out.result.workload == "444+445"
    assert out.result is runner.run((444, 445), "baseline")  # one shared memo
