"""Table 5: storage cost of AVGCC vs the baseline (exact arithmetic).

Always computed at the paper's geometry (1 MB/8-way/32 B lines, 42-bit
addresses); the totals must be 1144 kB vs ~1146.5 kB with 2560 B (+4 B of
A/B/D counters) of additional storage.
"""

from __future__ import annotations

from repro.analysis.overhead import table5_rows
from repro.analysis.reporting import format_table
from repro.api.spec import RunSpec
from repro.sim.config import PAPER_L2


def cells() -> list[RunSpec]:
    """None: the table is arithmetic."""
    return []


def render(session) -> list[dict[str, object]]:
    """Compute the Table 5 rows (exact arithmetic; ``session`` is unused)."""
    return table5_rows(PAPER_L2)


def format_result(rows: list[dict[str, object]]) -> str:
    """Render the Table 5 comparison."""
    return format_table(
        ["item", "baseline", "AVGCC"],
        [[r["item"], r["baseline"], r["avgcc"]] for r in rows],
        title="Table 5: storage cost (paper geometry, 42-bit addresses)",
    )
