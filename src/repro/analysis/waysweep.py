"""Way-restriction sweeps: the analysis behind Figures 1 and 2.

Figure 1 runs each benchmark alone on a 2 MB/16-way cache with 2..16 ways
enabled (plus full associativity) and reports MPKI and CPI.  Figure 2
classifies each *set* as **favored** (its MPKI keeps dropping as ways are
added) or **constant** (the drop is below 1 % relative to two fewer ways).

Each sweep point is one :class:`~repro.api.spec.RunSpec` with ``l2_ways``
set: the set count stays fixed while associativity shrinks — exactly "the
remaining ways are disabled" (see
:meth:`~repro.cache.geometry.CacheGeometry.with_ways`).
:func:`sweep_cells` declares a grid of them and :func:`sweep` reads it
back from a session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.spec import FULL_ASSOC, RunSpec
from repro.sim.config import ScaleModel

#: Ways enabled in the Figure 1 sweep (the last point is full assoc).
FIGURE1_WAYS = [2, 4, 6, 8, 10, 12, 14, 16]

#: Engine seed of the Figure 1/2 sweeps.
SWEEP_SEED = 11


@dataclass(frozen=True)
class SweepPoint:
    """One benchmark at one way count."""

    code: int
    ways: int
    full_assoc: bool
    mpki: float
    cpi: float
    set_misses: tuple[int, ...]
    instructions: int

    def set_mpki(self, set_idx: int) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.set_misses[set_idx] / self.instructions


def sweep_cells(
    codes: Sequence[int],
    ways_list: Sequence[int],
    include_full_assoc: bool = True,
    **spec,
) -> list[RunSpec]:
    """Each benchmark alone at each of ``ways_list`` (then full
    associativity); ``spec`` holds the shared :class:`RunSpec` fields
    (``seed`` defaults to :data:`SWEEP_SEED`)."""
    ways = [*ways_list, *([FULL_ASSOC] if include_full_assoc else [])]
    spec = {"seed": SWEEP_SEED, **spec}
    return [
        RunSpec(mix=(code,), scheme="baseline", l2_ways=w, **spec)
        for code in codes
        for w in ways
    ]


def sweep(session, specs: Sequence[RunSpec]) -> dict[int, list[SweepPoint]]:
    """Read sweep cells' results from ``session``, grouped by benchmark."""
    points: dict[int, list[SweepPoint]] = {}
    for spec in specs:
        result = session.result(spec)
        stats, full = result.cores[0], spec.l2_ways == FULL_ASSOC
        points.setdefault(spec.mix[0], []).append(
            SweepPoint(
                code=spec.mix[0],
                ways=ScaleModel(spec.scale).sweep_l2().lines if full else spec.l2_ways,
                full_assoc=full,
                mpki=stats.mpki,
                cpi=stats.cpi,
                set_misses=result.set_misses,
                instructions=stats.instructions,
            )
        )
    return points


@dataclass(frozen=True)
class SetClassification:
    """Figure 2 outcome for one way count."""

    code: int
    ways: int
    favored_fraction: float
    constant_fraction: float


def classify_sets(
    previous: SweepPoint, current: SweepPoint, threshold: float = 0.01
) -> SetClassification:
    """Apply the paper's 1 % rule between two sweep points (ways-2, ways).

    A set is *constant* when its MPKI does not decrease, or decreases by
    less than ``threshold`` relative to the previous (two fewer ways)
    point; otherwise it is *favored*.
    """
    sets = len(current.set_misses)
    favored = 0
    for s in range(sets):
        prev_mpki = previous.set_mpki(s)
        cur_mpki = current.set_mpki(s)
        if prev_mpki > 0 and cur_mpki < prev_mpki * (1.0 - threshold):
            favored += 1
    return SetClassification(
        code=current.code,
        ways=current.ways,
        favored_fraction=favored / sets,
        constant_fraction=1.0 - favored / sets,
    )
