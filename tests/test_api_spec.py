"""RunSpec: coercion, validation boundaries, canonical cache key."""

import dataclasses
import json

import pytest

from repro.api import CACHE_FORMAT_VERSION, RunSpec, SpecError, parse_mix, spec_grid
from repro.sim.config import PrefetchConfig, ScaleModel


def test_mix_string_and_int_coercion():
    assert RunSpec(mix="471+444").mix == (471, 444)
    assert RunSpec(mix=471).mix == (471,)
    assert RunSpec(mix=[471, 444]).mix == (471, 444)


def test_spec_is_frozen_and_hashable():
    spec = RunSpec(mix=(471, 444))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.quota = 1
    assert spec == RunSpec(mix="471+444")
    assert hash(spec) == hash(RunSpec(mix="471+444"))


def test_events_excluded_from_equality_and_key():
    plain = RunSpec(mix=(471, 444))
    traced = RunSpec(mix=(471, 444), events=("spill", "swap"))
    assert plain == traced
    assert plain.cache_key() == traced.cache_key()


def test_scale_and_prefetch_coercion():
    spec = RunSpec(mix=(471,), scale=ScaleModel(), prefetch=PrefetchConfig())
    assert isinstance(spec.scale, float)
    assert isinstance(spec.prefetch, tuple) and len(spec.prefetch) == 3
    assert spec.runner_params()["prefetch"] == PrefetchConfig(*spec.prefetch)


@pytest.mark.parametrize(
    "changes,field",
    [
        (dict(mix=()), "mix"),
        (dict(mix=(999,)), "mix"),
        (dict(scheme="typo"), "scheme"),
        (dict(quota=0), "quota"),
        (dict(quota=-5), "quota"),
        (dict(warmup=-1), "warmup"),
        (dict(seed=-3), "seed"),
        (dict(scale=0.0), "scale"),
        (dict(scale=1.5), "scale"),
        (dict(l2_paper_bytes=0), "l2_paper_bytes"),
        (dict(prefetch=(0, 2, 2)), "prefetch"),
        (dict(events=("warp",)), "events"),
        (dict(events=()), "events"),
        (dict(mix=(473,), scheme="baseline", l2_ways=0), "l2_ways"),
        (dict(mix=(473,), scheme="baseline", l2_ways=17), "l2_ways"),
        (dict(mix=(473,), scheme="baseline", l2_ways="16"), "l2_ways"),
        (dict(mix=(473,), scheme="baseline", l2_ways=True), "l2_ways"),
        (dict(scheme="baseline", l2_ways=8), "l2_ways"),  # a multi-core mix
        (dict(mix=(473,), l2_ways=8), "l2_ways"),  # not the baseline
        (dict(mix=(473,), scheme="baseline", l2_ways=8, l2_paper_bytes=512), "l2_ways"),
        (dict(mix=(), kernel=("lu", 4), l2_ways=8), "l2_ways"),
        (dict(mix=(), kernel=("warp", 4)), "kernel"),
        (dict(mix=(), kernel=("lu", 0)), "kernel"),
        (dict(mix=(), kernel=("lu", 2.0)), "kernel"),
        (dict(mix=(), kernel="lu"), "kernel"),
        (dict(kernel=("lu", 4)), "kernel"),  # both a mix and a kernel
    ],
)
def test_validate_rejects_each_boundary_with_field(changes, field):
    params = dict(mix=(471, 444))
    params.update(changes)
    with pytest.raises(SpecError) as excinfo:
        RunSpec(**params).validate()
    assert excinfo.value.field == field


def test_validate_accepts_boundary_legal_values():
    # warmup 0 disables warmup; quota < warmup is a legal short measured
    # window after a long warmup — neither is an error.
    RunSpec(mix=(471, 444), warmup=0).validate()
    RunSpec(mix=(471, 444), quota=500, warmup=2_000).validate()
    RunSpec(mix=(471, 444), seed=0, scale=1.0).validate()
    for ways in (1, 16, "full"):
        RunSpec(mix=(473,), scheme="baseline", l2_ways=ways).validate()
    RunSpec(kernel=("lu", 1), scheme="ascc").validate()


def test_quota_smaller_than_warmup_actually_runs():
    """Regression: quota < warmup must simulate, not be rejected."""
    from repro.execution.simulate import simulate_spec

    spec = RunSpec(mix=(471,), quota=500, warmup=2_000).validate()
    result = simulate_spec(spec)
    assert result.cores[0].instructions >= 500


def test_unknown_scheme_message_lists_alternatives():
    with pytest.raises(SpecError) as excinfo:
        RunSpec(mix=(471, 444), scheme="typo").validate()
    message = str(excinfo.value)
    assert "unknown scheme 'typo'" in message and "avgcc" in message


def test_cache_key_is_stable_and_discriminating():
    spec = RunSpec(mix=(471, 444))
    # Pinned: a key change orphans every cached result on disk.
    assert spec.cache_key() == (
        "ffb2bf4cd6dfaabc117c045670c29c2c8fbadf6a59c9c75891a1d893b5343c61"
    )
    assert spec.cache_key() == RunSpec(mix="471+444").cache_key()
    ways = RunSpec(mix=(473,), scheme="baseline")
    assert ways.cache_key() != ways.replace(l2_ways=16).cache_key()
    assert ways.replace(l2_ways=16).cache_key() != ways.replace(l2_ways="full").cache_key()
    kernel = RunSpec(kernel=("lu", 4))
    assert kernel.cache_key() != kernel.replace(kernel=("lu", 2)).cache_key()
    assert spec.cache_key() != spec.replace(seed=8).cache_key()
    assert spec.cache_key() != spec.replace(scheme="baseline").cache_key()
    assert len(spec.cache_key()) == 64  # sha256 hex


def test_cache_key_binds_format_version():
    spec = RunSpec(mix=(471, 444))
    assert CACHE_FORMAT_VERSION >= 3
    assert repr(CACHE_FORMAT_VERSION) in repr((CACHE_FORMAT_VERSION, spec.key_tuple()))


def test_dict_round_trip():
    spec = RunSpec(
        mix=(471, 444), scheme="dsr", quota=1000, warmup=0,
        prefetch=(16, 2, 2), events=("spill",),
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert RunSpec.from_dict(spec.to_dict()).events == ("spill",)
    for shaped in (
        RunSpec(mix=(473,), scheme="baseline", l2_ways=6),
        RunSpec(mix=(473,), scheme="baseline", l2_ways="full"),
        RunSpec(kernel=("lu", 4), scheme="ascc", l2_paper_bytes=512 * 1024),
    ):
        back = RunSpec.from_dict(json.loads(json.dumps(shaped.to_dict())))
        assert back == shaped
        assert back.cache_key() == shaped.cache_key()


def test_from_dict_accepts_mix_string_and_rejects_unknown_keys():
    assert RunSpec.from_dict({"mix": "471+444"}).mix == (471, 444)
    with pytest.raises(SpecError) as excinfo:
        RunSpec.from_dict({"mix": [471], "quotaa": 5})
    assert "unknown spec key(s) quotaa" in str(excinfo.value)
    with pytest.raises(SpecError):
        RunSpec.from_dict({"scheme": "avgcc"})  # no mix
    assert RunSpec.from_dict({"kernel": ["lu", 4]}).kernel == ("lu", 4)
    with pytest.raises(SpecError):
        RunSpec.from_dict([471, 444])  # not a mapping


@pytest.mark.parametrize("text", ["", "471+", "+444", "abc+444"])
def test_parse_mix_rejects_malformed(text):
    with pytest.raises(SpecError):
        parse_mix(text)


def test_spec_grid_is_ordered_product():
    specs = spec_grid([(471, 444), (444, 445)], ["baseline", "avgcc"], quota=1000)
    assert [s.name for s in specs] == [
        "471+444/baseline[quota=1000]", "471+444/avgcc[quota=1000]",
        "444+445/baseline[quota=1000]", "444+445/avgcc[quota=1000]",
    ]
    assert all(s.quota == 1000 for s in specs)


def test_name_and_cell():
    spec = RunSpec(mix=(471, 444), scheme="dsr")
    assert spec.name == "471+444/dsr"
    assert spec.cell() == ((471, 444), "dsr")
    assert RunSpec(mix=(473,), scheme="baseline", l2_ways=6).name == "473@ways=6/baseline"
    assert RunSpec(kernel=("lu", 4), scheme="ascc").name == "lu*4/ascc"


#: One variant per ``key_tuple()`` field, each away from its default.
KEY_VARIANTS = [
    dict(mix=(471, 445)),
    dict(scheme="ascc"),
    dict(quota=100_000),
    dict(warmup=100_000),
    dict(seed=11),
    dict(scale=0.125),
    dict(l2_paper_bytes=2 * 1024 * 1024),
    dict(prefetch=PrefetchConfig()),
    dict(mix=(473,), scheme="baseline", l2_ways=6),
    dict(mix=(), kernel=("lu", 4)),
]


def test_specs_with_different_keys_have_different_names():
    base = RunSpec(mix=(471, 444))
    specs = [base] + [base.replace(**change) for change in KEY_VARIANTS]
    specs += [s.replace(seed=s.seed + 100) for s in specs]
    assert len({s.key_tuple() for s in specs}) == len(specs)
    assert len({s.name for s in specs}) == len(specs)
    # Specs at every default keep the short names they always had.
    assert base.name == "471+444/avgcc"
    assert base.replace(quota=100_000, seed=11).name == (
        "471+444/avgcc[quota=100000,seed=11]"
    )
