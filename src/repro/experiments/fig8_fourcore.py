"""Figure 8: four-core improvement for DSR, DSR+DIP, ECC, ASCC, AVGCC.

The headline result: AVGCC +7.8% and ASCC +5.7% in the paper, both ahead
of the prior schemes, with DSR+DIP degrading relative to its 2-core
showing as spill traffic grows.
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

SCHEMES = ("dsr", "dsr+dip", "ecc", "ascc", "avgcc")

COMPARISON = Comparison(
    "Figure 8: weighted-speedup improvement over baseline (4 cores)",
    MIX4, SCHEMES,
)
