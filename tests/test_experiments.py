"""Every experiment module runs end to end at reduced size."""

import json

import pytest

from repro.api import Session
from repro.experiments import (
    fig1_ways,
    fig2_sets,
    fig4_breakdown,
    fig5_neutral,
    fig7_twocore,
    fig8_fourcore,
    fig9_fairness,
    fig10_latency,
    fig11_qos,
    sec61_shared,
    sec63_multithread,
    sec63_prefetch,
    sec64_behavior,
    sec7_limited,
    tab1_granularity,
    tab4_sizes,
    tab5_cost,
)
from repro.experiments.runner import ExperimentRunner

MIX4_SMALL = [(445, 444, 456, 471)]
MIX2_SMALL = [(471, 444)]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(quota=8_000, warmup=6_000)


def test_fig1(tiny=True):
    result = fig1_ways.run(codes=[444], ways_list=[2, 8], include_full_assoc=False,
                           quota=5_000, warmup=2_000, session=Session())
    text = fig1_ways.format_result(result)
    assert "444.namd" in text
    assert len(result.points[444]) == 2


def test_fig2(tmp_path):
    result = fig2_sets.run(codes=[473], ways_list=[6, 8], quota=5_000, warmup=2_000,
                           session=Session(cache_dir=tmp_path))
    assert len(result.classifications[473]) == 1
    assert "favored" in fig2_sets.format_result(result)
    # Figure 1 at the same parameters resolves both cells from the cache.
    report = tmp_path / "report.json"
    fig1_ways.run(codes=[473], ways_list=[6, 8], include_full_assoc=False,
                  quota=5_000, warmup=2_000,
                  session=Session(cache_dir=tmp_path, report_path=report))
    counts = json.loads(report.read_text())["counts"]
    assert (counts["cache"], counts["simulated"]) == (2, 0)


def test_fig4(runner):
    result = fig4_breakdown.run(runner, mixes=MIX4_SMALL)
    assert set(result.schemes) == set(fig4_breakdown.SCHEMES)
    assert "geomean" in fig4_breakdown.format_result(result)


def test_fig5(runner):
    result = fig5_neutral.run(runner, mixes=MIX4_SMALL)
    assert "ascc-2s" in result.schemes


def test_tab1(runner):
    result = tab1_granularity.run(runner, mixes=MIX4_SMALL, groupings=[1, 16])
    assert result.schemes == ("ascc", "ascc/16")


def test_fig7(runner):
    result = fig7_twocore.run(runner, mixes=MIX2_SMALL)
    assert result.value(MIX2_SMALL[0], "avgcc") is not None


def test_fig8(runner):
    result = fig8_fourcore.run(runner, mixes=MIX4_SMALL)
    geo = result.geomeans()
    assert set(geo) == set(fig8_fourcore.SCHEMES)


def test_fig9(runner):
    result = fig9_fairness.run(runner, mixes=MIX4_SMALL)
    assert result.metric == "fairness"


def test_fig10(runner):
    result = fig10_latency.run(runner, mixes=MIX2_SMALL, schemes=["ascc"])
    row_text = fig10_latency.format_result(result)
    assert "AML" in row_text
    b = result.breakdowns[("471+444", "ascc")]
    assert 0.0 <= b.local_fraction <= 1.0


def test_fig11(runner):
    result = fig11_qos.run(runner, mixes=MIX2_SMALL)
    assert result.schemes == ("avgcc", "qos-avgcc")


def test_tab4():
    rows = tab4_sizes.run(sizes_mb=[1], mixes4=MIX4_SMALL, mixes2=MIX2_SMALL,
                          quota=8_000, warmup=6_000)
    assert rows[0].size_mb == 1
    assert 0.001 < rows[0].storage_overhead < 0.004
    assert "Table 4" in tab4_sizes.format_result(rows)


def test_tab5():
    rows = tab5_cost.run()
    assert "Table 5" in tab5_cost.format_result(rows)


def test_sec61(runner):
    result = sec61_shared.run(4, runner, mixes=MIX4_SMALL)
    assert "shared" in result.schemes


def test_sec63_multithread():
    result = sec63_multithread.run(kernels=["lu"], schemes=["ascc"],
                                   quota=6_000, warmup=4_000, session=Session())
    assert ("lu", "ascc") in result.improvements
    assert "lu" in sec63_multithread.format_result(result)


def test_sec63_prefetch():
    result = sec63_prefetch.run(2, mixes=MIX2_SMALL, schemes=["ascc"],
                                quota=8_000, warmup=6_000)
    assert result.schemes == ("ascc",)


def test_sec64(runner):
    rows = sec64_behavior.run(4, runner, mixes=MIX4_SMALL, schemes=["dsr", "avgcc"])
    assert [r.scheme for r in rows] == ["dsr", "avgcc"]
    assert all(r.total_spills >= 0 for r in rows)


def test_sec7(runner):
    rows = sec7_limited.run(runner, mixes=MIX4_SMALL, variants=[128, None])
    assert rows[0].extra_storage_bytes == 83
    assert rows[1].scheme == "avgcc"


def test_sec62_energy(runner):
    from repro.experiments import sec62_energy

    result = sec62_energy.run(2, runner, mixes=MIX2_SMALL, schemes=["ascc"])
    assert ("471+444", "ascc") in result.reductions
    assert "energy" in sec62_energy.format_result(result)
