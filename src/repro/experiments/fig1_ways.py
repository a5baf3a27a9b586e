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
from repro.analysis.waysweep import FIGURE1_WAYS, SweepPoint, sweep, sweep_cells
from repro.api.spec import RunSpec
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


def cells(
    codes=FIGURE1_CODES,
    ways_list=FIGURE1_WAYS,
    include_full_assoc: bool = True,
    quota: int = 100_000,
    warmup: int = 50_000,
    **spec,
) -> list[RunSpec]:
    """One cell per benchmark and enabled-way count."""
    return sweep_cells(
        codes, ways_list, include_full_assoc, quota=quota, warmup=warmup, **spec
    )


def render(session, **params) -> Figure1Result:
    """Each benchmark's sweep, read from ``session``."""
    return Figure1Result(points=sweep(session, cells(**params)))


def format_result(result: Figure1Result) -> str:
    """Render the Figure 1 table."""
    return format_table(
        ["benchmark", "ways", "MPKI", "CPI"],
        result.rows(),
        title="Figure 1: MPKI and CPI vs enabled ways (2MB/16-way sweep cache)",
    )
