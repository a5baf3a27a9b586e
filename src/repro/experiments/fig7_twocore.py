"""Figure 7: two-core improvement for DSR, DSR+DIP, ECC, ASCC, AVGCC."""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX2

SCHEMES = ("dsr", "dsr+dip", "ecc", "ascc", "avgcc")

COMPARISON = Comparison(
    "Figure 7: weighted-speedup improvement over baseline (2 cores)",
    MIX2, SCHEMES,
)
