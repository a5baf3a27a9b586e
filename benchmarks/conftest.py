"""Shared fixtures for the benchmark harness.

The ``session`` fixture simulates every declared cell of the paper's
tables and figures (:func:`repro.experiments.registry.declared_cells`) plus the
mechanism ablation's as one batch over ``os.cpu_count()`` workers, as
``repro experiment all`` does, into a result cache (``paper_cells``);
each benchmark then renders its table from that session's memo.  ``emit`` prints each regenerated table
(visible with ``pytest -s`` or in the captured output) and archives it
under ``results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api.session import Session
from repro.experiments.registry import EXPERIMENTS, declared_cells
from repro.experiments.comparison import Comparison

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: ASCC's two remote-service models on donor+taker mixes: the Section
#: 3.2 swap versus serve-in-place (``ascc-noswap``), against DSR.
SWAP_ABLATION = Comparison(
    "Mechanism ablation: ASCC with and without the Section 3.2 swap",
    ((471, 444), (429, 401), (473, 445)),
    ("ascc", "ascc-noswap", "dsr"),
)


@pytest.fixture(scope="session")
def paper_cells(tmp_path_factory) -> pathlib.Path:
    """The result cache the ``session`` fixture fills."""
    return tmp_path_factory.mktemp("paper-cells")


@pytest.fixture(scope="session")
def session(paper_cells) -> Session:
    session = Session(jobs=os.cpu_count() or 1, cache_dir=paper_cells)
    session.prewarm([*declared_cells(), *SWAP_ABLATION.cells()])
    return session


@pytest.fixture(scope="session")
def emit():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def regenerate(benchmark, session, emit, name: str, archive: str):
    """Render experiment ``name`` at its declared params once under
    timing, and archive its table as ``results/<archive>.txt``."""
    experiment, params = EXPERIMENTS[name]
    result = run_once(benchmark, lambda: experiment.render(session, **params))
    emit(archive, experiment.format_result(result))
    return result
