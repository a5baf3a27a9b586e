"""Section 7: cost-limited AVGCC — capping the number of counters.

Limiting AVGCC to 128 counters costs only 83 B of storage and keeps most
of the speedup; 2048 counters (1284 B) nearly match the full design.  The
table pairs measured speedup with the exact storage bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.overhead import limited_counter_extra_bytes
from repro.analysis.reporting import format_table
from repro.api.spec import RunSpec, spec_grid
from repro.metrics.speedup import geometric_mean
from repro.sim.config import PAPER_L2
from repro.workloads.mixes import MIX4

VARIANTS = [128, 2048, None]  # None = full AVGCC (one counter per set)


@dataclass(frozen=True)
class LimitedRow:
    """One cost-limited variant: speedup plus exact storage bytes."""

    scheme: str
    geomean_improvement: float
    extra_storage_bytes: int


def _scheme(limit: int | None) -> str:
    return "avgcc" if limit is None else f"avgcc/{limit}"


def cells(mixes=MIX4, variants=VARIANTS, **spec) -> list[RunSpec]:
    """Every mix under every variant; a session adds the baselines."""
    return spec_grid(mixes, [_scheme(limit) for limit in variants], **spec)


def render(session, mixes=MIX4, variants=VARIANTS, **spec) -> list[LimitedRow]:
    """Each variant's geomean speedup, paired with its storage."""
    return [
        LimitedRow(
            scheme=_scheme(limit),
            geomean_improvement=geometric_mean([
                session.outcome(cell).speedup_improvement
                for cell in cells(mixes, [limit], **spec)
            ]),
            extra_storage_bytes=limited_counter_extra_bytes(
                PAPER_L2, limit or PAPER_L2.sets
            ),
        )
        for limit in variants
    ]


def format_result(rows: list[LimitedRow]) -> str:
    """Render the Section 7 trade-off table."""
    return format_table(
        ["variant", "geomean improvement", "extra storage"],
        [
            [r.scheme, f"{100 * r.geomean_improvement:+.1f}%", f"{r.extra_storage_bytes}B"]
            for r in rows
        ],
        title="Section 7: cost-limited AVGCC (storage at paper geometry)",
    )
