"""Figure 2: favored vs constant sets for astar and milc.

For each way count the paper classifies each set by its per-set MPKI: if
adding two ways does not cut a set's MPKI by at least 1 %, the set is
*constant*; otherwise *favored*.  astar keeps a large favored fraction that
shrinks as ways grow; milc is constant almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.analysis.waysweep import SetClassification, classify_sets, sweep
from repro.api.session import Session
from repro.sim.config import ScaleModel
from repro.workloads.spec2006 import benchmark

#: The paper shows astar (a) and milc (b).
FIGURE2_CODES = [473, 433]


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


def run(
    codes: list[int] | None = None,
    ways_list: list[int] | None = None,
    scale: ScaleModel = ScaleModel(),
    quota: int = 100_000,
    warmup: int = 50_000,
    session: Session | None = None,
) -> Figure2Result:
    """Classify sets for each benchmark across the way sweep, through
    ``session`` (a serial, cache-less one when ``None``).  The cells are
    Figure 1's, so a cache directory Figure 1 filled serves them."""
    points = sweep(
        session or Session(),
        codes if codes is not None else FIGURE2_CODES,
        ways_list if ways_list is not None else [4, 6, 8, 10, 12, 14, 16],
        include_full_assoc=False, scale=scale, quota=quota, warmup=warmup,
    )
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
