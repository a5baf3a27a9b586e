"""Scheme-comparison experiments, declared as data.

Figures 4, 5, 7, 8, 9 and 11, Table 1 and Sections 6.1 and 6.3
(prefetching) all have the same shape: a set of schemes, a set of
multiprogrammed mixes, one metric (weighted-speedup improvement or
fairness improvement), a per-mix bar group and a geomean column.  Each
of their modules is one :class:`Comparison` (its ``COMPARISON``), whose
:meth:`~Comparison.cells` declare the (mix x scheme) matrix and whose
:meth:`~Comparison.render` reads it back from a session's memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_percent, format_table
from repro.api.spec import RunSpec, spec_grid
from repro.metrics.speedup import geometric_mean
from repro.workloads.mixes import mix_name

METRICS = ("speedup", "fairness", "aml", "offchip")


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


def format_comparison(result: ComparisonResult) -> str:
    """Render a comparison matrix as an ASCII table."""
    return format_table(
        ["workload"] + list(result.schemes), result.rows(), title=result.title
    )


@dataclass(frozen=True)
class Comparison:
    """One (mix x scheme) matrix for one improvement metric.

    ``title`` may name ``{cores}``, filled from the mixes' core count.
    ``spec`` holds :class:`RunSpec` fields every cell shares; keyword
    arguments to :meth:`cells`/:meth:`render` override it, and
    ``mixes``/``schemes`` override the declared ones.
    """

    title: str
    mixes: tuple[tuple[int, ...], ...]
    schemes: tuple[str, ...]
    metric: str = "speedup"
    spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    def cells(self, mixes=None, schemes=None, **spec) -> list[RunSpec]:
        """The matrix's specs; a session adds baselines and stand-alone runs."""
        return spec_grid(
            self.mixes if mixes is None else mixes,
            self.schemes if schemes is None else schemes,
            **{**self.spec, **spec},
        )

    def render(self, session, mixes=None, schemes=None, **spec) -> ComparisonResult:
        """Read every cell's improvement from ``session``."""
        mixes = tuple(tuple(m) for m in (self.mixes if mixes is None else mixes))
        schemes = tuple(self.schemes if schemes is None else schemes)
        values = {}
        for cell in self.cells(mixes, schemes, **spec):
            outcome = session.outcome(cell)
            if self.metric == "speedup":
                value = outcome.speedup_improvement
            elif self.metric == "fairness":
                value = outcome.fairness_improvement
            elif self.metric == "aml":
                value = outcome.aml_improvement
            else:
                value = outcome.offchip_reduction
            values[(mix_name(cell.mix), cell.scheme)] = value
        return ComparisonResult(
            title=self.title.format(cores=len(mixes[0])),
            metric=self.metric,
            schemes=schemes,
            mixes=mixes,
            values=values,
        )

    format_result = staticmethod(format_comparison)
