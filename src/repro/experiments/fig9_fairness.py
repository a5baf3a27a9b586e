"""Figure 9: fairness (harmonic mean of normalised IPCs), 4 cores."""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

SCHEMES = ("dsr", "dsr+dip", "ecc", "ascc", "avgcc")

COMPARISON = Comparison(
    "Figure 9: fairness improvement over baseline (4 cores)",
    MIX4, SCHEMES, metric="fairness",
)
