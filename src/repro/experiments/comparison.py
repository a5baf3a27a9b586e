"""Shared machinery for scheme-comparison experiments.

Figures 4, 5, 7, 8, 9 and 11 all have the same shape: a set of schemes, a
set of multiprogrammed mixes, one metric (weighted-speedup improvement or
fairness improvement), a per-mix bar group and a geomean column.  This
module runs that matrix once and formats it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_percent, format_table
from repro.experiments.runner import ExperimentRunner
from repro.metrics.speedup import geometric_mean
from repro.workloads.mixes import mix_name


@dataclass(frozen=True)
class ComparisonResult:
    """Improvements per (mix, scheme) plus the geomean row."""

    title: str
    metric: str
    schemes: tuple[str, ...]
    mixes: tuple[tuple[int, ...], ...]
    values: dict[tuple[str, str], float]  # (mix name, scheme) -> improvement

    def geomeans(self) -> dict[str, float]:
        return {
            scheme: geometric_mean(
                [self.values[(mix_name(m), scheme)] for m in self.mixes]
            )
            for scheme in self.schemes
        }

    def value(self, mix: tuple[int, ...], scheme: str) -> float:
        return self.values[(mix_name(mix), scheme)]

    def rows(self) -> list[list[object]]:
        rows = []
        for mix in self.mixes:
            name = mix_name(mix)
            rows.append(
                [name] + [format_percent(self.values[(name, s)]) for s in self.schemes]
            )
        geo = self.geomeans()
        rows.append(["geomean"] + [format_percent(geo[s]) for s in self.schemes])
        return rows


def compare(
    runner: ExperimentRunner,
    title: str,
    mixes: list[tuple[int, ...]],
    schemes: list[str],
    metric: str = "speedup",
) -> ComparisonResult:
    """Run the (mix x scheme) matrix for one improvement metric."""
    if metric not in ("speedup", "fairness", "aml", "offchip"):
        raise ValueError(f"unknown metric {metric!r}")
    # One batch covers the whole matrix, baselines included; the loop
    # below then reads the session's memo.
    runner.prewarm(mixes, schemes)
    values: dict[tuple[str, str], float] = {}
    for mix in mixes:
        for scheme in schemes:
            outcome = runner.outcome(mix, scheme)
            if metric == "speedup":
                value = outcome.speedup_improvement
            elif metric == "fairness":
                value = outcome.fairness_improvement
            elif metric == "aml":
                value = outcome.aml_improvement
            else:
                value = outcome.offchip_reduction
            values[(mix_name(mix), scheme)] = value
    return ComparisonResult(
        title=title,
        metric=metric,
        schemes=tuple(schemes),
        mixes=tuple(tuple(m) for m in mixes),
        values=values,
    )


def format_comparison(result: ComparisonResult) -> str:
    """Render a comparison matrix as an ASCII table."""
    return format_table(
        ["workload"] + list(result.schemes), result.rows(), title=result.title
    )
