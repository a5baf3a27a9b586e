"""Session façade: spec-driven results, batches, observers, digests."""

import json

import pytest

from repro.api import RunSpec, Session, result_digest, result_summary
from repro.experiments.runner import ExperimentRunner

SPEC = RunSpec(mix=(471, 444), quota=2_000, warmup=1_000)


def test_result_matches_direct_runner():
    runner = ExperimentRunner(quota=2_000, warmup=1_000)
    direct = runner.run((471, 444), "avgcc")
    via_session = Session().result(SPEC)
    assert result_digest(direct) == result_digest(via_session)


def test_outcome_normalises_against_baseline():
    outcome = Session().outcome(SPEC)
    assert outcome.result.scheme == "avgcc"
    assert isinstance(outcome.speedup_improvement, float)


def test_memo_answers_repeats_and_shares_outcome_cells():
    session = Session()
    outcome = session.outcome(SPEC)
    assert session.result(SPEC) is outcome.result
    assert session.result(SPEC.replace(scheme="baseline")) is outcome.baseline
    assert session.outcome(SPEC).result is outcome.result


def test_prewarm_returns_the_batch_report_and_covers_outcome_cells(tmp_path):
    session = Session(cache_dir=tmp_path / "cells")
    report = session.prewarm([SPEC])
    # The spec, its mix baseline and one stand-alone run per member.
    assert report.counts["simulated"] == 4 and report.counts["failed"] == 0
    assert (tmp_path / "cells" / "run_report.json").exists()
    # Everything is in the memo now: a second prewarm simulates nothing.
    assert session.prewarm([SPEC]).counts["total"] == 0


def test_prewarm_failure_names_the_failed_specs(monkeypatch):
    from repro.execution.report import ExecutorError

    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash=1,seed=3")
    session = Session(retries=0)
    with pytest.raises(ExecutorError) as excinfo:
        session.prewarm([SPEC])
    (failed,) = excinfo.value.failed
    assert isinstance(failed, RunSpec)
    assert failed.name in str(excinfo.value)
    # The cells that did finish stay answerable without re-simulating.
    monkeypatch.delenv("REPRO_FAULT_PLAN")
    assert session.prewarm([SPEC]).counts["simulated"] == 1


def test_session_construction_does_not_import_the_service():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys; from repro.api import Session; Session(jobs=2); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_prewarm_full_product_and_ragged_batches(tmp_path):
    session = Session(cache_dir=tmp_path / "cells")
    full = [
        SPEC, SPEC.replace(scheme="baseline"),
        SPEC.replace(mix=(444, 445)),
        SPEC.replace(mix=(444, 445), scheme="baseline"),
    ]
    session.prewarm(full)
    # Ragged: one scheme only for the second mix.
    ragged = [SPEC, SPEC.replace(mix=(444, 445), scheme="dsr")]
    session.prewarm(ragged)
    for spec in full + ragged:
        assert session.result(spec).workload == "+".join(str(c) for c in spec.mix)


def test_run_many_yields_in_submission_order():
    session = Session()
    specs = [SPEC, SPEC.replace(scheme="baseline")]
    seen = [spec.name for spec, _result in session.run_many(specs)]
    assert seen == ["471+444/avgcc", "471+444/baseline"]


def test_session_validates_specs():
    from repro.api import SpecError

    with pytest.raises(SpecError):
        Session().result(SPEC.replace(quota=0))


def test_stats_and_trace_are_bit_identical_to_plain_run():
    from repro.execution.simulate import simulate_spec

    plain = result_digest(simulate_spec(SPEC))
    session = Session()
    recorder = session.stats(SPEC, interval=500)
    assert recorder.samples, "no interval samples recorded"
    tracer = session.trace(SPEC.replace(events=("spill", "swap")), capacity=64)
    assert result_digest(simulate_spec(SPEC)) == plain
    assert tracer.emitted >= 0  # tracer attached and ran


def test_result_summary_is_json_ready_and_carries_digest():
    result = Session().result(SPEC)
    summary = result_summary(result)
    encoded = json.loads(json.dumps(summary))
    assert encoded["digest"] == result_digest(result)
    assert encoded["workload"] == "471+444"
    assert len(encoded["cores"]) == 2 and "mpki" in encoded["cores"][0]


def test_result_digest_matches_golden_formula():
    """Session's digest must stay interchangeable with the golden tests'."""
    from tests.test_golden_digests import digest

    result = Session().result(SPEC)
    assert result_digest(result) == digest(result)
