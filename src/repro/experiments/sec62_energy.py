"""Section 6.2's power claim: memory-hierarchy energy reduction.

The paper attributes 25 % (2 cores) / 29 % (4 cores) average power
reductions to AVGCC, driven by the off-chip access reduction.  This
experiment evaluates the event-energy model over the paper's mixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.energy import EnergyModel
from repro.analysis.reporting import format_table
from repro.api.spec import RunSpec, spec_grid
from repro.metrics.speedup import geometric_mean
from repro.workloads.mixes import MIX4, mix_name

SCHEMES = ["dsr", "ascc", "avgcc"]


@dataclass(frozen=True)
class EnergyResult:
    """Energy reductions per (mix, scheme) with a geomean."""

    num_cores: int
    schemes: tuple[str, ...]
    mixes: tuple[tuple[int, ...], ...]
    reductions: dict[tuple[str, str], float]

    def geomeans(self) -> dict[str, float]:
        return {
            s: geometric_mean([self.reductions[(mix_name(m), s)] for m in self.mixes])
            for s in self.schemes
        }

    def rows(self) -> list[list[object]]:
        rows = [
            [mix_name(m)]
            + [f"{100 * self.reductions[(mix_name(m), s)]:+.1f}%" for s in self.schemes]
            for m in self.mixes
        ]
        geo = self.geomeans()
        rows.append(["geomean"] + [f"{100 * geo[s]:+.1f}%" for s in self.schemes])
        return rows


def cells(mixes=MIX4, schemes=SCHEMES, **spec) -> list[RunSpec]:
    """The (mix x scheme) matrix; a session adds the baselines."""
    return spec_grid(mixes, schemes, **spec)


def render(session, mixes=MIX4, schemes=SCHEMES, **spec) -> EnergyResult:
    """Evaluate the energy model on each cell against its baseline."""
    model = EnergyModel()
    reductions = {
        (mix_name(cell.mix), cell.scheme): model.reduction(
            session.result(cell), session.result(cell.replace(scheme="baseline"))
        )
        for cell in cells(mixes, schemes, **spec)
    }
    return EnergyResult(
        num_cores=len(mixes[0]),
        schemes=tuple(schemes),
        mixes=tuple(tuple(m) for m in mixes),
        reductions=reductions,
    )


def format_result(result: EnergyResult) -> str:
    """Render the Section 6.2 energy table."""
    return format_table(
        ["workload"] + list(result.schemes),
        result.rows(),
        title=f"Section 6.2: memory-hierarchy energy reduction ({result.num_cores} cores)",
    )
