"""Table 1: ASCC at fixed granularities, 1 to all sets per counter.

The paper sweeps 4096 counters (per-set) down to a single counter per
cache.  On a scaled cache the same sweep covers 1 set/counter up to
all-sets/counter; granularities beyond the scaled set count clamp to one
counter per cache (the ASCC1 column).
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

#: Paper sweep: sets grouped per counter.
GROUPINGS = (1, 4, 16, 64, 256, 1024, 4096)
SCHEMES = tuple(f"ascc/{g}" if g > 1 else "ascc" for g in GROUPINGS)

COMPARISON = Comparison(
    "Table 1: ASCC granularity sweep, weighted-speedup improvement (4 cores)",
    MIX4, SCHEMES,
)
