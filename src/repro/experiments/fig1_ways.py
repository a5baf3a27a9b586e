"""Figure 1: MPKI and CPI versus enabled ways (plus full associativity).

Eight benchmarks run alone on the 2 MB/16-way sweep cache with 2..16 ways
enabled; the dotted baseline in the paper is the 1 MB/8-way point.  The
upper-row benchmarks should be flat (capacity-insensitive), the lower-row
ones should improve as ways are added, and several should retain misses
even at 16 ways that full associativity removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.analysis.waysweep import FIGURE1_WAYS, SweepPoint, sweep
from repro.api.session import Session
from repro.sim.config import ScaleModel
from repro.workloads.spec2006 import FIGURE1_CODES, benchmark


@dataclass(frozen=True)
class Figure1Result:
    """Per-benchmark MPKI/CPI sweeps over enabled ways."""

    points: dict[int, list[SweepPoint]]  # code -> sweep

    def rows(self) -> list[list[object]]:
        rows = []
        for code, sweep in self.points.items():
            label = benchmark(code).label
            for point in sweep:
                ways = "full" if point.full_assoc else str(point.ways)
                rows.append([label, ways, round(point.mpki, 2), round(point.cpi, 2)])
        return rows


def run(
    codes: list[int] | None = None,
    ways_list: list[int] | None = None,
    include_full_assoc: bool = True,
    scale: ScaleModel = ScaleModel(),
    quota: int = 100_000,
    warmup: int = 50_000,
    session: Session | None = None,
) -> Figure1Result:
    """Sweep each benchmark over the enabled-way list through ``session``
    (a serial, cache-less one when ``None``)."""
    points = sweep(
        session or Session(),
        codes if codes is not None else FIGURE1_CODES,
        ways_list if ways_list is not None else FIGURE1_WAYS,
        include_full_assoc, scale, quota, warmup,
    )
    return Figure1Result(points=points)


def format_result(result: Figure1Result) -> str:
    """Render the Figure 1 table."""
    return format_table(
        ["benchmark", "ways", "MPKI", "CPI"],
        result.rows(),
        title="Figure 1: MPKI and CPI vs enabled ways (2MB/16-way sweep cache)",
    )
