"""Section 6.2's power claim: memory-hierarchy energy reduction.

The paper attributes 25 % (2 cores) / 29 % (4 cores) average power
reductions to AVGCC, driven by the off-chip access reduction.  This
experiment evaluates the event-energy model over the paper's mixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.energy import EnergyModel
from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentRunner
from repro.metrics.speedup import geometric_mean
from repro.workloads.mixes import all_mixes, mix_name

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


def run(
    num_cores: int = 4,
    runner: ExperimentRunner | None = None,
    mixes: list[tuple[int, ...]] | None = None,
    schemes: list[str] | None = None,
    model: EnergyModel = EnergyModel(),
) -> EnergyResult:
    """Evaluate the energy model over the mixes for each scheme."""
    runner = runner or ExperimentRunner()
    mixes = mixes if mixes is not None else all_mixes(num_cores)
    schemes = schemes if schemes is not None else list(SCHEMES)
    runner.prewarm(mixes, schemes)
    reductions: dict[tuple[str, str], float] = {}
    for mix in mixes:
        baseline = runner.run(mix, "baseline")
        for scheme in schemes:
            result = runner.run(mix, scheme)
            reductions[(mix_name(mix), scheme)] = model.reduction(result, baseline)
    return EnergyResult(
        num_cores=num_cores,
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
