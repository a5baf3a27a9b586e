"""Figure 5: the value of the neutral state.

ASCC vs its 2-state ablation (spill at SSL >= K, no neutral band) and DSR
vs DSR-3S (the 2 MSBs of the PSEL adding a whole-cache neutral state).
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

SCHEMES = ("ascc", "ascc-2s", "dsr", "dsr-3s")

COMPARISON = Comparison(
    "Figure 5: neutral-state ablations, weighted-speedup improvement (4 cores)",
    MIX4, SCHEMES,
)
