"""Differential verification: one spec, every backend and execution path.

The simulator promises that its result is a pure function of the
:class:`~repro.api.spec.RunSpec` — independent of which
:class:`~repro.cache.cache.CacheArray` backend stores the lines, whether
trace buffers are replayed or regenerated, and which execution path
carries the simulation: a direct ``simulate_spec`` call, or
:func:`~repro.service.scheduler.run_batch` fanning out to worker
processes (the one path behind :class:`~repro.api.session.Session`,
the figure sweeps, the CLI and the batch service).  :func:`run_grid`
turns that promise into a check: it runs the same spec across the full

    {slot, dict} x {trace-cache on, off} x {serial, batch}

grid (8 cells) and reports the result digest of every cell;
:func:`assert_grid_identical` fails with a readable table when any cell
diverges.  Available as a library, as ``repro verify --grid`` on the
CLI, and as the ``differential_grid`` pytest fixture
(``tests/test_verify_differential.py``).

Backend and trace-cache selection travel through the same environment
variables production uses (``REPRO_CACHE_BACKEND``,
``REPRO_TRACE_CACHE``), set *before* any worker pool is created so
forked/spawned workers inherit them — each cell therefore exercises the
real configuration plumbing, not a test-only shortcut.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.api.spec import RunSpec

#: The grid axes.  ``BACKENDS`` mirrors ``repro.cache.cache.CACHE_BACKENDS``;
#: ``PATHS`` are the reference ``simulate_spec`` call and ``run_batch``
#: (every other front-end — Session, the CLI, the HTTP service — runs
#: through it, so the grid covers their simulation path too).
BACKENDS: tuple[str, ...] = ("slot", "dict")
TRACE_MODES: tuple[bool, ...] = (True, False)
PATHS: tuple[str, ...] = ("serial", "batch")


@dataclass(frozen=True)
class GridCell:
    """One executed cell of the differential grid."""

    backend: str
    trace_cache: bool
    path: str
    digest: str

    @property
    def label(self) -> str:
        traces = "traces" if self.trace_cache else "gen"
        return f"{self.backend}/{traces}/{self.path}"


@dataclass
class GridReport:
    """All cells of one differential run, plus the identity verdict."""

    spec: RunSpec
    cells: list[GridCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return len(self.digests()) <= 1

    def digests(self) -> set[str]:
        return {cell.digest for cell in self.cells}

    def describe(self) -> str:
        lines = [f"differential grid for {self.spec.name}: {len(self.cells)} cells"]
        width = max((len(cell.label) for cell in self.cells), default=0)
        for cell in self.cells:
            lines.append(f"  {cell.label:<{width}}  {cell.digest}")
        lines.append(
            "IDENTICAL" if self.ok else f"DIVERGED: {len(self.digests())} distinct digests"
        )
        return "\n".join(lines)


@contextmanager
def _patched_env(**values: Optional[str]) -> Iterator[None]:
    """Set/unset environment variables, restoring the previous state."""
    saved = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, previous in saved.items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous


def _digest(result) -> str:
    """The result digest, extended by a way-sweep cell's per-set misses."""
    from repro.api.session import result_digest

    digest = result_digest(result)
    if result.set_misses is None:
        return digest
    return hashlib.sha256(f"{digest}{result.set_misses!r}".encode()).hexdigest()


def _run_serial(spec: RunSpec) -> str:
    from repro.execution.simulate import simulate_spec

    return _digest(simulate_spec(spec))


def _run_batch(spec: RunSpec, jobs: int) -> str:
    from repro.service.scheduler import run_batch

    outcomes, _stats, _report = run_batch([spec], jobs=jobs)
    result = outcomes[0]
    if isinstance(result, BaseException):
        raise result
    return _digest(result)


def run_cell(spec: RunSpec, backend: str, trace_cache: bool, path: str, jobs: int = 2) -> GridCell:
    """Execute one grid cell and return its digest."""
    cell_spec = spec.replace(trace_cache=trace_cache)
    with _patched_env(
        REPRO_CACHE_BACKEND=backend,
        REPRO_TRACE_CACHE="1" if trace_cache else "0",
    ):
        if path == "serial":
            digest = _run_serial(cell_spec)
        elif path == "batch":
            digest = _run_batch(cell_spec, jobs)
        else:
            raise ValueError(f"unknown path {path!r}; choose from {PATHS}")
    return GridCell(backend=backend, trace_cache=trace_cache, path=path, digest=digest)


def run_grid(
    spec: RunSpec,
    *,
    backends: Sequence[str] = BACKENDS,
    trace_modes: Sequence[bool] = TRACE_MODES,
    paths: Sequence[str] = PATHS,
    jobs: int = 2,
    progress=None,
) -> GridReport:
    """Run ``spec`` across the full grid and collect every digest.

    ``progress`` (optional callable taking a :class:`GridCell`) is
    invoked after each cell — the CLI uses it to stream the table.
    """
    spec = spec.validate()
    report = GridReport(spec=spec)
    for backend in backends:
        for trace_cache in trace_modes:
            for path in paths:
                cell = run_cell(spec, backend, trace_cache, path, jobs=jobs)
                report.cells.append(cell)
                if progress is not None:
                    progress(cell)
    return report


def assert_grid_identical(spec: RunSpec, **kwargs) -> GridReport:
    """Run the grid; raise :class:`AssertionError` on any divergence."""
    report = run_grid(spec, **kwargs)
    if not report.ok:
        raise AssertionError(report.describe())
    return report
