"""Section 6.4: internal behaviour — spill counts and hits per spill.

The paper reports AVGCC performing 13-28% fewer spills than the next-best
scheme (and 60-70% fewer than the worst) while achieving a 28-36% higher
hits-per-spill ratio: the neutral state avoids useless spills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentRunner
from repro.workloads.mixes import all_mixes

SCHEMES = ["dsr", "dsr+dip", "ecc", "ascc", "avgcc"]


@dataclass(frozen=True)
class BehaviorRow:
    """Aggregate spill behaviour of one scheme over the mixes."""

    scheme: str
    total_spills: int
    total_swaps: int
    hits_on_spilled: int
    hits_per_spill: float


def run(
    num_cores: int = 4,
    runner: ExperimentRunner | None = None,
    mixes: list[tuple[int, ...]] | None = None,
    schemes: list[str] | None = None,
) -> list[BehaviorRow]:
    """Aggregate spill/swap/hit counters per scheme over the mixes."""
    runner = runner or ExperimentRunner()
    mixes = mixes if mixes is not None else all_mixes(num_cores)
    schemes = schemes if schemes is not None else list(SCHEMES)
    runner.prewarm(mixes, schemes)
    rows = []
    for scheme in schemes:
        spills = swaps = hits = 0
        for mix in mixes:
            result = runner.run(mix, scheme)
            spills += result.total_spills
            swaps += sum(c.swaps for c in result.cores)
            hits += result.total_hits_on_spilled
        placed = spills + swaps
        rows.append(
            BehaviorRow(
                scheme=scheme, total_spills=spills, total_swaps=swaps,
                hits_on_spilled=hits,
                hits_per_spill=hits / placed if placed else 0.0,
            )
        )
    return rows


def format_result(rows: list[BehaviorRow]) -> str:
    """Render the Section 6.4 behaviour table."""
    return format_table(
        ["scheme", "spills", "swaps", "hits on spilled", "hits/spill"],
        [
            [r.scheme, r.total_spills, r.total_swaps, r.hits_on_spilled,
             round(r.hits_per_spill, 3)]
            for r in rows
        ],
        title="Section 6.4: spill counts and hits per spilled line",
    )
