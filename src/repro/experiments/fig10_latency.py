"""Figure 10: normalised average memory latency with access breakdown.

For each two-core mix and scheme: the AML normalised to the baseline and
the fractions of L2 accesses served locally, by a remote L2 and by memory.
The cooperative schemes convert memory fractions into remote fractions;
on 429+401 former local hits become remote hits, degrading AVGCC/ASCC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentRunner
from repro.metrics.latency import LatencyBreakdown
from repro.metrics.speedup import geometric_mean
from repro.workloads.mixes import MIX2, mix_name

SCHEMES = ["dsr", "dsr+dip", "ecc", "ascc", "avgcc"]


@dataclass(frozen=True)
class Figure10Result:
    """Latency breakdowns per (mix, scheme) with geomean AML."""

    schemes: tuple[str, ...]
    breakdowns: dict[tuple[str, str], LatencyBreakdown]
    mixes: tuple[tuple[int, ...], ...]

    def geomean_improvement(self, scheme: str) -> float:
        return geometric_mean(
            [self.breakdowns[(mix_name(m), scheme)].improvement for m in self.mixes]
        )

    def rows(self) -> list[list[object]]:
        rows = []
        for mix in self.mixes:
            name = mix_name(mix)
            for scheme in self.schemes:
                b = self.breakdowns[(name, scheme)]
                rows.append([
                    name, scheme, round(100 * b.normalized_aml, 1),
                    round(b.local_fraction, 3), round(b.remote_fraction, 3),
                    round(b.memory_fraction, 3),
                ])
        for scheme in self.schemes:
            rows.append([
                "geomean", scheme,
                round(100 * (1 - self.geomean_improvement(scheme)), 1), "", "", "",
            ])
        return rows


def run(
    runner: ExperimentRunner | None = None,
    mixes: list[tuple[int, ...]] | None = None,
    schemes: list[str] | None = None,
) -> Figure10Result:
    """Collect latency breakdowns for every (mix, scheme) pair."""
    runner = runner or ExperimentRunner()
    mixes = mixes if mixes is not None else list(MIX2)
    schemes = schemes if schemes is not None else list(SCHEMES)
    runner.prewarm(mixes, schemes)
    breakdowns = {
        (mix_name(mix), scheme): runner.outcome(mix, scheme).latency
        for mix in mixes
        for scheme in schemes
    }
    return Figure10Result(
        schemes=tuple(schemes),
        breakdowns=breakdowns,
        mixes=tuple(tuple(m) for m in mixes),
    )


def format_result(result: Figure10Result) -> str:
    """Render the Figure 10 table."""
    return format_table(
        ["workload", "scheme", "AML (baseline=100)", "local", "remote", "memory"],
        result.rows(),
        title="Figure 10: normalised average memory latency and access breakdown (2 cores)",
    )
