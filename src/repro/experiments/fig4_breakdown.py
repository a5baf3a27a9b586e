"""Figure 4: the ASCC design breakdown on four-application mixes.

Compares LRS, LMS, GMS, LMS+BIP, GMS+SABIP, DSR and ASCC, isolating the
contribution of min-SSL receiver selection (LRS vs LMS), per-set vs global
metrics (LMS vs GMS), the capacity insertion policy (LMS vs LMS+BIP) and
SABIP (LMS+BIP vs ASCC).
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

SCHEMES = ("lrs", "lms", "gms", "lms+bip", "gms+sabip", "dsr", "ascc")

COMPARISON = Comparison(
    "Figure 4: design breakdown, weighted-speedup improvement (4 cores)",
    MIX4, SCHEMES,
)
