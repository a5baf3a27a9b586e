"""Differential grid: every backend and execution path, one digest.

One small spec is executed across the full {slot, dict} x {traces
on, off} x {serial, batch} grid (8 cells) through the
module-scoped ``differential_grid`` fixture — the same machinery
``repro verify --grid`` drives — and every structural property of the
report is asserted against that single (expensive) run.
"""

import os

import pytest

from repro.api import RunSpec
from repro.verify import (
    BACKENDS,
    PATHS,
    TRACE_MODES,
    GridCell,
    GridReport,
    assert_grid_identical,
    run_cell,
    run_grid,
)
from repro.verify.differential import _patched_env

SPEC = RunSpec(mix=(471, 444), scheme="avgcc", quota=1_200, warmup=400)


@pytest.fixture(scope="module")
def differential_grid():
    """The full 8-cell grid, simulated once for the whole module."""
    return run_grid(SPEC, jobs=2)


def test_grid_covers_every_combination(differential_grid):
    assert len(differential_grid.cells) == len(BACKENDS) * len(TRACE_MODES) * len(PATHS)
    labels = {cell.label for cell in differential_grid.cells}
    assert len(labels) == len(differential_grid.cells)  # no cell ran twice
    for backend in BACKENDS:
        for path in PATHS:
            assert f"{backend}/traces/{path}" in labels
            assert f"{backend}/gen/{path}" in labels


def test_grid_digests_identical(differential_grid):
    assert differential_grid.ok
    assert len(differential_grid.digests()) == 1
    (digest,) = differential_grid.digests()
    assert len(digest) == 64  # a full SHA-256, not a truncation


def test_describe_reports_verdict(differential_grid):
    text = differential_grid.describe()
    assert "IDENTICAL" in text
    assert SPEC.name in text
    for cell in differential_grid.cells:
        assert cell.label in text


def test_run_cell_rejects_unknown_path():
    with pytest.raises(ValueError, match="unknown path"):
        run_cell(SPEC, "slot", True, "warp-drive")


def test_divergence_detected_and_described():
    report = GridReport(
        spec=SPEC,
        cells=[
            GridCell("slot", True, "serial", "a" * 64),
            GridCell("dict", True, "serial", "b" * 64),
        ],
    )
    assert not report.ok
    assert "DIVERGED: 2 distinct digests" in report.describe()


def test_assert_grid_identical_raises_on_divergence(monkeypatch):
    diverged = GridReport(
        spec=SPEC,
        cells=[
            GridCell("slot", True, "serial", "a" * 64),
            GridCell("dict", True, "serial", "b" * 64),
        ],
    )
    import repro.verify.differential as differential

    monkeypatch.setattr(differential, "run_grid", lambda spec, **kw: diverged)
    with pytest.raises(AssertionError, match="DIVERGED"):
        assert_grid_identical(SPEC)


def test_patched_env_restores_previous_state(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "slot")
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    with _patched_env(REPRO_CACHE_BACKEND="dict", REPRO_TRACE_CACHE="0"):
        assert os.environ["REPRO_CACHE_BACKEND"] == "dict"
        assert os.environ["REPRO_TRACE_CACHE"] == "0"
    assert os.environ["REPRO_CACHE_BACKEND"] == "slot"
    assert "REPRO_TRACE_CACHE" not in os.environ
