"""Every experiment runs end to end at reduced size, through its protocol.

Each experiment's ``cells`` are prewarmed, then its ``render`` runs with
``Session._run`` patched to raise: rendering reads the session's memo
and simulates nothing.
"""

import json
from unittest import mock

import pytest

from repro.api import Session
from repro.experiments import fig1_ways, fig2_sets, fig4_breakdown, fig8_fourcore
from repro.experiments.comparison import format_comparison
from repro.experiments.registry import EXPERIMENTS, declared_cells

MIX4_SMALL = [(445, 444, 456, 471)]
MIX2_SMALL = [(471, 444)]
SPEC = dict(quota=8_000, warmup=6_000)

#: Experiment name -> reduced params.
SMALL = {
    "fig1": dict(codes=[444], ways_list=[2, 8], include_full_assoc=False,
                 quota=5_000, warmup=2_000),
    "fig2": dict(codes=[473], ways_list=[6, 8], quota=5_000, warmup=2_000),
    "fig4": dict(mixes=MIX4_SMALL, **SPEC),
    "fig5": dict(mixes=MIX4_SMALL, **SPEC),
    "tab1": dict(mixes=MIX4_SMALL, schemes=["ascc", "ascc/16"], **SPEC),
    "fig7": dict(mixes=MIX2_SMALL, **SPEC),
    "fig8": dict(mixes=MIX4_SMALL, **SPEC),
    "fig9": dict(mixes=MIX4_SMALL, **SPEC),
    "fig10": dict(mixes=MIX2_SMALL, schemes=["ascc"], **SPEC),
    "tab4": dict(sizes_mb=[1], mixes4=MIX4_SMALL, mixes2=MIX2_SMALL, **SPEC),
    "tab5": dict(),
    "fig11": dict(mixes=MIX2_SMALL, **SPEC),
    "sec61": dict(mixes=MIX4_SMALL, **SPEC),
    "sec62": dict(mixes=MIX2_SMALL, schemes=["ascc"], **SPEC),
    "sec63mt": dict(kernels=["lu"], schemes=["ascc"], quota=6_000, warmup=4_000),
    "sec63pf": dict(mixes=MIX2_SMALL, schemes=["ascc"], **SPEC),
    "sec64": dict(mixes=MIX4_SMALL, schemes=["dsr", "avgcc"], **SPEC),
    "sec7": dict(mixes=MIX4_SMALL, variants=[128, None], **SPEC),
}


def regenerate(session, experiment, **params):
    """Prewarm ``experiment``'s cells, then render it with simulation off."""
    session.prewarm(experiment.cells(**params))
    with mock.patch.object(Session, "_run", side_effect=AssertionError("render simulated")):
        return experiment.render(session, **params)


@pytest.fixture(scope="module")
def rendered():
    """Experiment name -> its result at :data:`SMALL` params, from one session."""
    session, results = Session(), {}

    def _rendered(name):
        if name not in results:
            results[name] = regenerate(session, EXPERIMENTS[name][0], **SMALL[name])
        return results[name]

    return _rendered


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_render_reads_only_the_memo(rendered, name):
    assert EXPERIMENTS[name][0].format_result(rendered(name))


def test_every_registered_experiment_has_reduced_params():
    assert list(SMALL) == list(EXPERIMENTS)


def test_declared_cells_are_one_deduplicated_union():
    union = declared_cells()
    assert len(union) == len(set(union))
    # Figure 2's cells are Figure 1's: the union holds them once.
    assert set(declared_cells(["fig2"])) <= set(declared_cells(["fig1"]))
    per_experiment = sum(len(declared_cells([name])) for name in EXPERIMENTS)
    assert len(union) < per_experiment
    assert declared_cells(["tab5"]) == []


def test_fig1(rendered):
    result = rendered("fig1")
    text = fig1_ways.format_result(result)
    assert "444.namd" in text
    assert len(result.points[444]) == 2


def test_fig2(tmp_path):
    result = regenerate(Session(cache_dir=tmp_path), fig2_sets, **SMALL["fig2"])
    assert len(result.classifications[473]) == 1
    assert "favored" in fig2_sets.format_result(result)
    # Figure 1 at the same parameters resolves both cells from the cache.
    report = tmp_path / "report.json"
    Session(cache_dir=tmp_path, report_path=report).prewarm(fig1_ways.cells(
        codes=[473], ways_list=[6, 8], include_full_assoc=False,
        quota=5_000, warmup=2_000,
    ))
    counts = json.loads(report.read_text())["counts"]
    assert (counts["cache"], counts["simulated"]) == (2, 0)


def test_fig4(rendered):
    result = rendered("fig4")
    assert set(result.schemes) == set(fig4_breakdown.SCHEMES)
    assert "geomean" in format_comparison(result)


def test_fig5(rendered):
    assert "ascc-2s" in rendered("fig5").schemes


def test_tab1(rendered):
    assert rendered("tab1").schemes == ("ascc", "ascc/16")


def test_fig7(rendered):
    assert rendered("fig7").value(MIX2_SMALL[0], "avgcc") is not None


def test_fig8(rendered):
    geo = rendered("fig8").geomeans()
    assert set(geo) == set(fig8_fourcore.SCHEMES)


def test_fig9(rendered):
    assert rendered("fig9").metric == "fairness"


def test_fig10(rendered):
    result = rendered("fig10")
    row_text = EXPERIMENTS["fig10"][0].format_result(result)
    assert "AML" in row_text
    b = result.breakdowns[("471+444", "ascc")]
    assert 0.0 <= b.local_fraction <= 1.0


def test_fig11(rendered):
    assert rendered("fig11").schemes == ("avgcc", "qos-avgcc")


def test_tab4(rendered):
    rows = rendered("tab4")
    assert rows[0].size_mb == 1
    assert 0.001 < rows[0].storage_overhead < 0.004
    assert "Table 4" in EXPERIMENTS["tab4"][0].format_result(rows)


def test_tab5(rendered):
    assert "Table 5" in EXPERIMENTS["tab5"][0].format_result(rendered("tab5"))


def test_sec61(rendered):
    result = rendered("sec61")
    assert "shared" in result.schemes
    assert "(4 cores)" in result.title


def test_sec63_multithread(rendered):
    result = rendered("sec63mt")
    assert ("lu", "ascc") in result.improvements
    assert "lu" in EXPERIMENTS["sec63mt"][0].format_result(result)


def test_sec63_prefetch(rendered):
    result = rendered("sec63pf")
    assert result.schemes == ("ascc",)
    assert "(2 cores)" in result.title


def test_sec64(rendered):
    rows = rendered("sec64")
    assert [r.scheme for r in rows] == ["dsr", "avgcc"]
    assert all(r.total_spills >= 0 for r in rows)


def test_sec7(rendered):
    rows = rendered("sec7")
    assert rows[0].extra_storage_bytes == 83
    assert rows[1].scheme == "avgcc"


def test_sec62_energy(rendered):
    result = rendered("sec62")
    assert ("471+444", "ascc") in result.reductions
    assert "energy" in EXPERIMENTS["sec62"][0].format_result(result)
