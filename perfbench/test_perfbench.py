"""Self-tests of the benchmark's own arithmetic and output contract.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests run every workload for real at a tiny budget (about two
minutes in all); ``-k "not smoke"`` skips them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
import stats
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock the code under test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_wrappers_subtract_child_time():
    clock = FakeClock()
    ledger = layers.Ledger(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        inner_timed()
        clock.now += 3.0
        inner_timed()

    inner_timed = ledger.wrap(inner, "l2array:Array.lookup")
    outer_timed = ledger.wrap(outer, "l2:Hierarchy.access")
    outer_timed()
    totals = ledger.totals()
    assert totals["self_s"] == {"l2array:Array.lookup": 4.0, "l2:Hierarchy.access": 4.0}
    assert totals["incl_s"]["l2:Hierarchy.access"] == 8.0
    assert totals["calls"] == {"l2array:Array.lookup": 2, "l2:Hierarchy.access": 1}


def test_wrapper_probe_counts_work_done_by_the_call():
    ledger = layers.Ledger()

    class Buffer:
        def __init__(self):
            self.records = []

        def ensure(self, n):
            self.records.extend(range(n - len(self.records)))

    Buffer.ensure = ledger.wrap(Buffer.ensure, "trace:Buffer.ensure", layers._trace_probe)
    buffer = Buffer()
    buffer.ensure(5)
    buffer.ensure(12)
    assert ledger.totals()["counts"] == {"trace:Buffer.ensure.records": 12}


def test_install_wraps_every_policy_hook_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.policies.base import LLCPolicy
    from repro.sim.engine import Engine

    original = Engine.run
    installed = layers.install(layers.Ledger())
    try:
        assert Engine.run is not original
        policies = {cls for cls, name, _ in installed if issubclass(cls, LLCPolicy)}
        assert len(policies) > 5
    finally:
        layers.uninstall(installed)
    assert Engine.run is original


def test_covered_counts_overlapping_spans_once():
    spans = [SimpleNamespace(wall=w, duration=d) for w, d in ((0.0, 2.0), (1.0, 2.0), (5.0, 1.0), (5.2, 0.3))]
    assert traced.covered(spans) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(19, None, 0), (40, 75.0, 10), (100, 90.0, 10), (250, 95.0, 12), (1000, 99.0, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    samples = [float(i) for i in range(1, n + 1)]
    summary = stats.summarize(samples)
    assert summary["n"] == n
    assert summary["p50"] == (n + 1) / 2
    assert summary["tail_pct"] == pct
    if pct is not None:
        assert sum(1 for s in samples if s > summary["tail"]) == beyond


def _fake_round(digests: dict) -> dict:
    return {
        "setup_s": 0.1,
        "phases": {"main": 2.0},
        "instr": {"main": 1_000_000},
        "cells": {"main": len(digests)},
        "cell_ms": [10.0] * len(digests),
        "digests": digests,
        "attempted": len(digests),
        "failed": 0,
        "rss_mb": 50.0,
        "numpy": "x",
    }


def _committed_cells(n: int) -> dict:
    table = json.loads((run.COMMITTED / "seed-7.json").read_text())["l2-pressure"]
    return dict(sorted(table.items())[:n])


def test_failed_frac_counts_a_digest_mismatch():
    cells = _committed_cells(4)
    ns = SimpleNamespace(workload="l2-pressure", seed=7, seconds=15.0)
    assert run.check(ns, [_fake_round(cells)])["failed_frac"] == 0.0
    name = next(iter(cells))
    cells[name] = "0" * 64
    verdict = run.check(ns, [_fake_round(cells)])
    assert verdict["failed_frac"] == 0.25
    assert verdict["mismatched_cells"] == [name]


def test_run_exits_nonzero_on_a_digest_mismatch(monkeypatch, capsys, tmp_path):
    cells = _committed_cells(3)
    cells[next(iter(cells))] = "f" * 64
    monkeypatch.setattr(run, "build", lambda: None)
    monkeypatch.setattr(run, "run_child", lambda *a, **k: _fake_round(cells))
    monkeypatch.setattr(run, "BUILD", tmp_path)
    code = run.main(["--workload", "l2-pressure", "--seconds", "7.5"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("failed_frac = 0.333") for line in lines)


def _smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, section):
    result, stdout = _smoke(workload, trace)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} = " in stdout and stdout.split(f"{name} = ", 1)[1].split("\n", 1)[0].endswith(
            f" {unit}"
        )
