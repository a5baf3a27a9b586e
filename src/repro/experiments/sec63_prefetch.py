"""Section 6.3: sensitivity to a per-LLC stride prefetcher.

The paper adds a 16 kB stride prefetcher to every LLC: ASCC/AVGCC gains
shrink slightly at 2 cores (the prefetcher removes some recoverable
misses first) and persist at 4 cores, where the bandwidth the prefetcher
consumes makes spill savings more valuable.
"""

from __future__ import annotations

from repro.api.session import Session
from repro.experiments.comparison import ComparisonResult, compare, format_comparison
from repro.experiments.runner import ExperimentRunner
from repro.sim.config import PrefetchConfig, ScaleModel
from repro.workloads.mixes import all_mixes

SCHEMES = ["ascc", "avgcc"]


def run(
    num_cores: int = 4,
    mixes: list[tuple[int, ...]] | None = None,
    schemes: list[str] | None = None,
    scale: ScaleModel = ScaleModel(),
    quota: int = 150_000,
    warmup: int = 150_000,
    session: Session | None = None,
) -> ComparisonResult:
    """Run the prefetcher-sensitivity comparison.

    ``session`` carries the orchestration knobs (a serial, cache-less
    one when ``None``).
    """
    runner = ExperimentRunner(
        session=session,
        scale=scale,
        quota=quota,
        warmup=warmup,
        prefetch=PrefetchConfig(),
    )
    return compare(
        runner,
        f"Section 6.3: improvement with per-LLC stride prefetchers ({num_cores} cores)",
        mixes if mixes is not None else all_mixes(num_cores),
        schemes if schemes is not None else list(SCHEMES),
        metric="speedup",
    )


format_result = format_comparison
