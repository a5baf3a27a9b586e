"""Table 4: AVGCC off-chip access reduction vs cache size, plus overhead.

The paper reports the average reduction in off-chip accesses for 1/2/4 MB
LLCs at 4 and 2 cores, with a constant 0.17% storage overhead (the
per-set structures scale with the cache).  Larger caches absorb more of
the working sets themselves, so the reduction shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.overhead import avgcc_cost, baseline_cost
from repro.analysis.reporting import format_table
from repro.api.spec import RunSpec, spec_grid
from repro.cache.geometry import CacheGeometry
from repro.sim.config import PAPER_L2
from repro.workloads.mixes import MIX2, MIX4

MB = 1024 * 1024
SIZES_MB = [1, 2, 4]


@dataclass(frozen=True)
class Table4Row:
    """One cache size: measured reductions plus the exact overhead."""

    size_mb: int
    reduction_4core: float
    reduction_2core: float
    storage_overhead: float


def _grids(sizes_mb, mixes4, mixes2, spec) -> dict[tuple[int, int], list[RunSpec]]:
    """``(size_mb, cores) -> avgcc cells`` of the whole table."""
    return {
        (size_mb, cores): spec_grid(
            mixes, ["avgcc"], l2_paper_bytes=size_mb * MB, **spec
        )
        for size_mb in sizes_mb
        for cores, mixes in ((4, mixes4), (2, mixes2))
    }


def cells(sizes_mb=SIZES_MB, mixes4=MIX4, mixes2=MIX2, **spec) -> list[RunSpec]:
    """Every size's avgcc cells; a session adds the baselines."""
    grids = _grids(sizes_mb, mixes4, mixes2, spec)
    return [cell for grid in grids.values() for cell in grid]


def render(session, sizes_mb=SIZES_MB, mixes4=MIX4, mixes2=MIX2, **spec) -> list[Table4Row]:
    """The mean off-chip reduction per size and core count, with the
    exact storage overhead."""
    grids = _grids(sizes_mb, mixes4, mixes2, spec)
    rows = []
    for size_mb in sizes_mb:
        reductions = {}
        for cores in (4, 2):
            values = [
                session.outcome(cell).offchip_reduction
                for cell in grids[(size_mb, cores)]
            ]
            reductions[cores] = sum(values) / len(values)
        geometry = CacheGeometry(size_mb * MB, PAPER_L2.ways, PAPER_L2.line_bytes)
        overhead = avgcc_cost(geometry).overhead_versus(baseline_cost(geometry))
        rows.append(
            Table4Row(
                size_mb=size_mb,
                reduction_4core=reductions[4],
                reduction_2core=reductions[2],
                storage_overhead=overhead,
            )
        )
    return rows


def format_result(rows: list[Table4Row]) -> str:
    """Render the Table 4 rows."""
    return format_table(
        ["cache size", "off-chip reduction 4c", "off-chip reduction 2c", "storage overhead"],
        [
            [f"{r.size_mb}MB", f"{100 * r.reduction_4core:.1f}%",
             f"{100 * r.reduction_2core:.1f}%", f"{100 * r.storage_overhead:.2f}%"]
            for r in rows
        ],
        title="Table 4: AVGCC cost-benefit vs cache size",
    )
