"""The whole paper as one batch: ``repro experiment all`` on the cache
the ``session`` fixture filled prints every archived table, in registry
order, without simulating a cell."""

import collections
import json

from benchmarks.conftest import RESULTS_DIR, run_once
from repro.cli import main
from repro.experiments.registry import EXPERIMENTS

#: Each registered experiment's archived table under ``results/``.
ARCHIVES = {
    "fig1": "fig1_ways",
    "fig2": "fig2_sets",
    "fig4": "fig4_breakdown",
    "fig5": "fig5_neutral",
    "tab1": "tab1_granularity",
    "fig7": "fig7_twocore",
    "fig8": "fig8_fourcore",
    "fig9": "fig9_fairness",
    "fig10": "fig10_latency",
    "tab4": "tab4_sizes",
    "tab5": "tab5_cost",
    "fig11": "fig11_qos",
    "sec61": "sec61_shared",
    "sec62": "sec62_energy",
    "sec63mt": "sec63_multithread",
    "sec63pf": "sec63_prefetch",
    "sec64": "sec64_behavior",
    "sec7": "sec7_limited",
}


def test_experiment_all_prints_the_paper_from_the_cache(
    benchmark, session, paper_cells, tmp_path, capsys
):
    assert list(ARCHIVES) == list(EXPERIMENTS)
    report, metrics = tmp_path / "report.json", tmp_path / "paper.prom"
    argv = ["experiment", "all", "--jobs", "2", "--cache-dir", str(paper_cells),
            "--report", str(report), "--metrics", str(metrics)]

    def experiment_all() -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    first = run_once(benchmark, experiment_all)
    assert first == "".join(
        (RESULTS_DIR / f"{archive}.txt").read_text() for archive in ARCHIVES.values()
    )
    counts = json.loads(report.read_text())["counts"]
    assert counts["simulated"] == 0 and counts["failed"] == 0
    assert counts["cache"] == counts["total"] > 0
    series = [
        line.rsplit(" ", 1)[0]
        for line in metrics.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert series
    assert not [key for key, n in collections.Counter(series).items() if n > 1]
    assert experiment_all() == first
