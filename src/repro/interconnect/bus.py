"""Latency model and traffic accounting for the on-chip interconnect.

The paper charges 9 cycles for a local L2 hit, 25 for a remote one and
115 ns (460 cycles at 4 GHz) for main memory.  Spills, swaps and coherence
invalidations ride the same network; we account their traffic so the
bandwidth-savings arguments of Section 6.3 can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass(frozen=True)
class LatencyModel:
    """Access latencies in core cycles."""

    l2_local_hit: int = 9
    l2_remote_hit: int = 25
    memory: int = 460  # 115 ns at 4 GHz
    #: Average latency of a banked shared LLC access, per core count
    #: (Section 6.1: ~2x the private latency at 2 cores, ~4x at 4).
    shared_llc_factor_per_core: float = 1.0

    def shared_llc(self, num_cores: int) -> int:
        """Average access latency to the interleaved shared LLC."""
        return round(self.l2_local_hit * max(2, num_cores) * self.shared_llc_factor_per_core)


@dataclass(slots=True)
class BusTraffic:
    """Message counters for the broadcast interconnect.

    A hierarchy builds one from its per-core counters when asked
    (:func:`repro.sim.results.bus_traffic`); nothing bumps these fields
    on the access path.
    """

    local_hits: int = 0
    remote_hits: int = 0
    memory_fetches: int = 0
    writebacks: int = 0
    spills: int = 0
    swaps: int = 0
    invalidations: int = 0
    prefetch_fills: int = 0
    snoop_broadcasts: int = 0

    #: Approximate flit costs per message type (line transfers move data,
    #: control messages do not).  Used for relative bandwidth comparisons.
    _DATA_COST: ClassVar[int] = 5
    _CONTROL_COST: ClassVar[int] = 1

    def data_messages(self) -> int:
        return (
            self.remote_hits
            + self.memory_fetches
            + self.writebacks
            + self.spills
            + 2 * self.swaps
            + self.prefetch_fills
        )

    def control_messages(self) -> int:
        return self.invalidations + self.snoop_broadcasts

    def total_flits(self) -> int:
        """Relative interconnect load (higher = more bandwidth consumed)."""
        return (
            self._DATA_COST * self.data_messages()
            + self._CONTROL_COST * self.control_messages()
        )

    def merged_with(self, other: "BusTraffic") -> "BusTraffic":
        merged = BusTraffic()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged
