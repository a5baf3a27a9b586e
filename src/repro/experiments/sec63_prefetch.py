"""Section 6.3: sensitivity to a per-LLC stride prefetcher.

The paper adds a 16 kB stride prefetcher to every LLC: ASCC/AVGCC gains
shrink slightly at 2 cores (the prefetcher removes some recoverable
misses first) and persist at 4 cores, where the bandwidth the prefetcher
consumes makes spill savings more valuable.
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.sim.config import PrefetchConfig
from repro.workloads.mixes import MIX4

SCHEMES = ("ascc", "avgcc")

COMPARISON = Comparison(
    "Section 6.3: improvement with per-LLC stride prefetchers ({cores} cores)",
    MIX4, SCHEMES, spec={"prefetch": PrefetchConfig()},
)
