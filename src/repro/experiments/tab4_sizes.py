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
from repro.cache.geometry import CacheGeometry
from repro.sim.config import PAPER_L2, ScaleModel
from repro.workloads.mixes import all_mixes

MB = 1024 * 1024
SIZES_MB = [1, 2, 4]


@dataclass(frozen=True)
class Table4Row:
    """One cache size: measured reductions plus the exact overhead."""

    size_mb: int
    reduction_4core: float
    reduction_2core: float
    storage_overhead: float


def run(
    sizes_mb: list[int] | None = None,
    mixes4: list[tuple[int, ...]] | None = None,
    mixes2: list[tuple[int, ...]] | None = None,
    scale: ScaleModel = ScaleModel(),
    quota: int = 150_000,
    warmup: int = 150_000,
    session=None,
) -> list[Table4Row]:
    """Measure the off-chip reduction for each cache size and core count.

    ``session`` carries the orchestration knobs (a serial, cache-less
    :class:`~repro.api.session.Session` when ``None``).
    """
    from repro.api.session import Session
    from repro.api.spec import spec_grid

    # The whole table is one cross-size spec batch against one session:
    # one run_batch call fans every size out together.
    session = session if session is not None else Session()
    grids: dict[tuple[int, int], list] = {}
    for size_mb in sizes_mb or SIZES_MB:
        for cores, mixes in ((4, mixes4), (2, mixes2)):
            chosen = mixes if mixes is not None else all_mixes(cores)
            grids[(size_mb, cores)] = spec_grid(
                chosen,
                ["avgcc"],
                quota=quota,
                warmup=warmup,
                scale=scale,
                l2_paper_bytes=size_mb * MB,
            )
    session.prewarm([spec for grid in grids.values() for spec in grid])

    rows = []
    for size_mb in sizes_mb or SIZES_MB:
        paper_bytes = size_mb * MB
        reductions = {}
        for cores in (4, 2):
            values = [
                session.outcome(spec).offchip_reduction
                for spec in grids[(size_mb, cores)]
            ]
            reductions[cores] = sum(values) / len(values)
        geometry = CacheGeometry(paper_bytes, PAPER_L2.ways, PAPER_L2.line_bytes)
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
