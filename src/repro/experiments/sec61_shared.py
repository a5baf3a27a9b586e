"""Section 6.1: the banked shared LLC of aggregate capacity.

The paper finds the shared cache improves the private baseline by only
~1.8% (2 cores) / ~3% (4 cores) in performance, far below ASCC/AVGCC:
private designs with explicit sharing mechanisms beat implicit sharing
that pays the interleaved-bank latency on every access.
"""

from __future__ import annotations

from repro.experiments.comparison import Comparison
from repro.workloads.mixes import MIX4

SCHEMES = ("shared", "ascc", "avgcc")

COMPARISON = Comparison(
    "Section 6.1: shared LLC vs cooperative private ({cores} cores)",
    MIX4, SCHEMES,
)
