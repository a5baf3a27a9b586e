"""The benchmark's own arithmetic: percentiles, failure share, self time."""

from __future__ import annotations

import math
import statistics

#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples a tail percentile needs strictly beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(samples, pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples) -> dict:
    """Median plus the highest tail percentile with >= 10 samples beyond it.

    Returns ``{"n", "p50", "tail_pct", "tail"}``; ``tail_pct`` and
    ``tail`` are ``None`` when too few samples lie beyond even p75.
    """
    samples = list(samples)
    out = {"n": len(samples), "p50": statistics.median(samples), "tail_pct": None, "tail": None}
    for pct in TAIL_LADDER:
        value = nearest_rank(samples, pct)
        if sum(1 for s in samples if s > value) >= TAIL_MIN_BEYOND:
            out["tail_pct"], out["tail"] = pct, value
            break
    return out


def failed_frac(failed_cells: int, mismatches: int, attempted: int) -> float:
    """Failed cells plus digest mismatches over cells attempted."""
    if attempted <= 0:
        raise ValueError("no cells attempted")
    return (failed_cells + mismatches) / attempted


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Cell names whose digest differs from (or is missing in) ``expected``."""
    return sorted(name for name, digest in observed.items() if expected.get(name) != digest)
