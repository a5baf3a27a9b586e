"""The package's public surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "3.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_top_level_workflow():
    runner = repro.ExperimentRunner(quota=4_000, warmup=2_000)
    outcome = repro.run_mix(runner.spec((444, 445), "baseline"), runner=runner)
    assert isinstance(outcome, repro.MixOutcome)
    assert outcome.result.workload == "444+445"


def test_scheme_and_mix_catalogues():
    assert "avgcc" in repro.available_schemes()
    assert len(repro.MIX2) == 14 and len(repro.MIX4) == 6
    assert repro.mix_name(repro.MIX4[0]) == "445+401+444+456"


def test_make_policy_factory():
    policy = repro.make_policy("ascc")
    assert policy.name == "ascc"


def test_runspec_workflow_is_top_level():
    spec = repro.RunSpec(mix="444+445", scheme="baseline", quota=4_000, warmup=2_000)
    outcome = repro.run_mix(spec)
    assert isinstance(outcome, repro.MixOutcome)
    assert outcome.result.workload == "444+445"


def test_session_is_top_level():
    spec = repro.RunSpec(mix=(444,), scheme="baseline", quota=2_000, warmup=1_000)
    result = repro.Session().result(spec)
    assert result.workload == "444"


def test_spec_validation_is_top_level():
    import pytest

    with pytest.raises(repro.SpecError):
        repro.RunSpec(mix=(444,), quota=0).validate()
    assert len(repro.spec_grid([(444,), (445,)], ["baseline"])) == 2


# --------------------------------------------------------------------- #
# repro.api: the stable, versioned service surface (PR 10)
# --------------------------------------------------------------------- #


def test_repro_api_all_is_the_locked_contract():
    """``repro.api.__all__`` is the public contract — additions are fine
    (extend this list), removals/renames need a major bump (DESIGN §11)."""
    import repro.api as api

    assert sorted(api.__all__) == [
        "AsyncClient",
        "BatchScheduler",
        "CACHE_FORMAT_VERSION",
        "ExecutorConfig",
        "RunSpec",
        "Session",
        "SpanTracer",
        "SpecError",
        "parse_mix",
        "result_digest",
        "result_summary",
        "run_batch",
        "spec_grid",
    ]


def test_repro_api_all_exports_resolve():
    import repro.api as api

    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_repro_api_service_exports_are_the_service_objects():
    import repro.api as api
    import repro.service as service

    assert api.run_batch is service.run_batch
    assert api.BatchScheduler is service.BatchScheduler
    assert api.AsyncClient is service.AsyncClient
    assert api.ExecutorConfig is service.ExecutorConfig


def test_repro_api_span_tracer_is_the_obs_tracer():
    import repro.api as api
    from repro.obs.spans import SpanTracer

    assert api.SpanTracer is SpanTracer


def test_repro_api_unknown_attribute_raises():
    import pytest

    import repro.api as api

    with pytest.raises(AttributeError, match="no attribute"):
        api.does_not_exist
