"""Figure 11: QoS-Aware AVGCC vs AVGCC on two-core mixes.

The QoS extension should remove AVGCC's per-mix losses (e.g. 429+401)
while keeping, and on the geomean slightly improving, the gains.
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX2

SCHEMES = ("avgcc", "qos-avgcc")

COMPARISON = Comparison(
    "Figure 11: QoS-Aware AVGCC vs AVGCC, weighted-speedup improvement (2 cores)",
    MIX2, SCHEMES,
)
