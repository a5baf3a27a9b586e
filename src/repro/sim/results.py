"""Per-core and system-level simulation statistics.

``CoreStats`` counts only events that occur before the core reaches its
instruction quota (the paper freezes statistics at 10 B instructions while
cores keep running so cache competition continues); the engine flips
``recording`` off at the quota.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.interconnect.bus import BusTraffic, LatencyModel


@dataclass(slots=True)
class CoreStats:
    """Events attributed to one core, while its stats are live.

    ``slots=True`` because the simulator increments these counters on every
    access in the hot loop.
    """

    core_id: int = 0
    recording: bool = True

    instructions: int = 0
    cycles: float = 0.0

    l1_hits: int = 0
    l1_misses: int = 0
    wt_writes: int = 0

    l2_accesses: int = 0
    l2_local_hits: int = 0
    l2_remote_hits: int = 0
    l2_memory_fetches: int = 0

    spills_out: int = 0
    spills_in: int = 0
    swaps: int = 0
    hits_on_spilled: int = 0
    writebacks: int = 0
    invalidations_sent: int = 0
    prefetches_issued: int = 0
    prefetches_useful: int = 0

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_misses(self) -> int:
        """Accesses not satisfied by the local L2."""
        return self.l2_remote_hits + self.l2_memory_fetches

    @property
    def mpki(self) -> float:
        """Local-L2 misses per kilo-instruction (the paper's L2 MPKI)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions

    @property
    def offchip_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_memory_fetches / self.instructions

    @property
    def offchip_accesses(self) -> int:
        """Memory fetches plus writebacks (Table 4's metric)."""
        return self.l2_memory_fetches + self.writebacks

    def average_memory_latency(self, lat: LatencyModel) -> float:
        """Sequential-access average latency over L2 accesses (Fig. 10)."""
        if not self.l2_accesses:
            return 0.0
        total = (
            self.l2_local_hits * lat.l2_local_hit
            + self.l2_remote_hits * lat.l2_remote_hit
            + self.l2_memory_fetches * (lat.l2_remote_hit + lat.memory)
        )
        return total / self.l2_accesses

    def access_breakdown(self) -> dict[str, float]:
        """Fractions of L2 accesses by where they were served."""
        n = self.l2_accesses or 1
        return {
            "local": self.l2_local_hits / n,
            "remote": self.l2_remote_hits / n,
            "memory": self.l2_memory_fetches / n,
        }


@dataclass
class SystemResult:
    """Outcome of one multi-core simulation."""

    scheme: str
    workload: str
    cores: list[CoreStats] = field(default_factory=list)
    traffic: BusTraffic = field(default_factory=BusTraffic)
    latencies: LatencyModel = field(default_factory=LatencyModel)
    #: Per-set L2 misses over the whole run, warmup included, of a
    #: way-sweep (``l2_ways``) cell; ``None`` for every other cell.
    #: Result digests leave it out.
    set_misses: Optional[tuple[int, ...]] = None

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def total_spills(self) -> int:
        return sum(c.spills_out for c in self.cores)

    @property
    def total_hits_on_spilled(self) -> int:
        return sum(c.hits_on_spilled for c in self.cores)

    @property
    def hits_per_spill(self) -> float:
        spills = self.total_spills
        return self.total_hits_on_spilled / spills if spills else 0.0

    @property
    def total_offchip_accesses(self) -> int:
        return sum(c.offchip_accesses for c in self.cores)

    def cpis(self) -> list[float]:
        return [c.cpi for c in self.cores]

    def ipcs(self) -> list[float]:
        return [c.ipc for c in self.cores]

    def average_memory_latency(self) -> float:
        """System AML weighted by each core's L2 accesses."""
        accesses = sum(c.l2_accesses for c in self.cores)
        if not accesses:
            return 0.0
        total = sum(
            c.average_memory_latency(self.latencies) * c.l2_accesses for c in self.cores
        )
        return total / accesses

    def access_breakdown(self) -> dict[str, float]:
        n = sum(c.l2_accesses for c in self.cores) or 1
        return {
            "local": sum(c.l2_local_hits for c in self.cores) / n,
            "remote": sum(c.l2_remote_hits for c in self.cores) / n,
            "memory": sum(c.l2_memory_fetches for c in self.cores) / n,
        }
