"""Figure 2: favored vs constant sets for astar and milc.

For each way count the paper classifies each set by its per-set MPKI: if
adding two ways does not cut a set's MPKI by at least 1 %, the set is
*constant*; otherwise *favored*.  astar keeps a large favored fraction that
shrinks as ways grow; milc is constant almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.analysis.waysweep import (
    SetClassification,
    classify_sets,
    sweep,
    sweep_cells,
)
from repro.api.spec import RunSpec
from repro.workloads.spec2006 import benchmark

#: The paper shows astar (a) and milc (b).
FIGURE2_CODES = [473, 433]
#: Way counts of the sweep; each is classified against the one before it.
FIGURE2_WAYS = [4, 6, 8, 10, 12, 14, 16]


@dataclass(frozen=True)
class Figure2Result:
    """Favored/constant classifications per benchmark and way count."""

    classifications: dict[int, list[SetClassification]]

    def rows(self) -> list[list[object]]:
        rows = []
        for code, classes in self.classifications.items():
            label = benchmark(code).label
            for c in classes:
                rows.append(
                    [label, c.ways, round(c.favored_fraction, 3), round(c.constant_fraction, 3)]
                )
        return rows


def cells(
    codes=FIGURE2_CODES,
    ways_list=FIGURE2_WAYS,
    quota: int = 100_000,
    warmup: int = 50_000,
    **spec,
) -> list[RunSpec]:
    """The way-sweep cells; they are Figure 1's, so a batch holding both
    figures simulates them once."""
    return sweep_cells(codes, ways_list, False, quota=quota, warmup=warmup, **spec)


def render(session, **params) -> Figure2Result:
    """Classify sets between consecutive way counts of each sweep."""
    points = sweep(session, cells(**params))
    out = {
        code: [classify_sets(prev, cur) for prev, cur in zip(curve, curve[1:])]
        for code, curve in points.items()
    }
    return Figure2Result(classifications=out)


def format_result(result: Figure2Result) -> str:
    """Render the Figure 2 table."""
    return format_table(
        ["benchmark", "ways", "favored", "constant"],
        result.rows(),
        title="Figure 2: favored vs constant set fractions",
    )
