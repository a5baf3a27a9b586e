"""Programmatic calibration report: models vs the paper's Table 3.

Runs each benchmark model alone on the (scaled) baseline machine and
compares the measured MPKI and CPI against Table 3's reference values.
The CLI's ``calibrate`` command and the calibration tests are built on
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentRunner
from repro.workloads.spec2006 import all_codes, benchmark


@dataclass(frozen=True)
class CalibrationRow:
    """Measured vs Table 3 reference for one benchmark."""

    code: int
    label: str
    measured_mpki: float
    target_mpki: float
    measured_cpi: float
    target_cpi: float
    capacity_sensitive: bool

    @property
    def mpki_ratio(self) -> float:
        return self.measured_mpki / self.target_mpki if self.target_mpki else 0.0

    @property
    def cpi_ratio(self) -> float:
        return self.measured_cpi / self.target_cpi if self.target_cpi else 0.0


def calibrate(
    runner: ExperimentRunner | None = None,
    codes: list[int] | None = None,
) -> list[CalibrationRow]:
    """Measure every benchmark model on the baseline machine, alone."""
    runner = runner or ExperimentRunner(quota=100_000, warmup=60_000)
    codes = list(codes if codes is not None else all_codes())
    runner.prewarm([(code,) for code in codes], ["baseline"])
    rows = []
    for code in codes:
        spec = benchmark(code)
        stats = runner.run((code,), "baseline").cores[0]
        rows.append(
            CalibrationRow(
                code=code,
                label=spec.label,
                measured_mpki=stats.mpki,
                target_mpki=spec.table3_mpki,
                measured_cpi=stats.cpi,
                target_cpi=spec.table3_cpi,
                capacity_sensitive=spec.capacity_sensitive,
            )
        )
    return rows


def worst_ratio(rows: list[CalibrationRow]) -> float:
    """The largest multiplicative MPKI deviation across the table."""
    worst = 1.0
    for row in rows:
        ratio = row.mpki_ratio
        if ratio > 0:
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


def format_calibration(rows: list[CalibrationRow]) -> str:
    """Render the calibration rows as an ASCII table."""
    return format_table(
        ["benchmark", "MPKI", "Table 3", "CPI", "Table 3", "class"],
        [
            [r.label, round(r.measured_mpki, 2), r.target_mpki,
             round(r.measured_cpi, 2), r.target_cpi,
             "taker" if r.capacity_sensitive else "donor/streamer"]
            for r in rows
        ],
        title="Benchmark calibration vs Table 3",
    )
