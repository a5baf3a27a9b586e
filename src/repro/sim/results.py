"""Per-core and system-level simulation statistics.

A hierarchy counts every L2 outcome and event once, in one always-on
:class:`CoreCounts` per core.  ``CoreStats`` holds only the events of a
core's recorded window, from the end of its warmup to the record that
reaches its instruction quota (the paper freezes statistics at 10 B
instructions while cores keep running so cache competition continues):
the engine snapshots the counters at the two transitions and writes the
differences (:func:`record_counts`).  ``recording`` says whether the
window is open; nothing on the access path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.interconnect.bus import BusTraffic, LatencyModel


@dataclass(slots=True)
class CoreStats:
    """Events attributed to one core over its recorded window."""

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


@dataclass(slots=True)
class CoreCounts:
    """One core's events in a hierarchy, counted once and always on.

    The field names are :class:`CoreStats`' own.  ``slots=True`` because
    the hierarchy bumps one of these on every L2 access.
    """

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
    #: Store hits that went through ``write_through``; the engine counts
    #: the ones it retires itself.
    wt_writes: int = 0
    #: Copies this core's L2 lost to coherence invalidations: bus
    #: traffic only, not a ``CoreStats`` field.
    invalidations: int = 0

    @property
    def l2_accesses(self) -> int:
        """Every access ends in exactly one of the three outcomes."""
        return self.l2_local_hits + self.l2_remote_hits + self.l2_memory_fetches

    def copy(self) -> "CoreCounts":
        return replace(self)


#: The ``CoreCounts`` fields a recorded window copies into ``CoreStats``.
_WINDOWED = tuple(f.name for f in fields(CoreCounts) if f.name != "invalidations")


def record_counts(stats: CoreStats, start: CoreCounts, end: CoreCounts) -> None:
    """Set ``stats``' hierarchy-counted fields to ``end - start``."""
    for name in _WINDOWED:
        setattr(stats, name, getattr(end, name) - getattr(start, name))
    stats.l2_accesses = end.l2_accesses - start.l2_accesses


def bus_traffic(counts: list[CoreCounts], snooping: bool = True) -> BusTraffic:
    """The whole run's bus messages, summed from per-core counters.

    Every local miss broadcasts a snoop on the private hierarchy and
    ends in a remote hit or a memory fetch, so snoops are their sum; a
    shared LLC (``snooping=False``) broadcasts none.
    """
    remote = sum(c.l2_remote_hits for c in counts)
    memory = sum(c.l2_memory_fetches for c in counts)
    return BusTraffic(
        local_hits=sum(c.l2_local_hits for c in counts),
        remote_hits=remote,
        memory_fetches=memory,
        writebacks=sum(c.writebacks for c in counts),
        spills=sum(c.spills_out for c in counts),
        swaps=sum(c.swaps for c in counts),
        invalidations=sum(c.invalidations for c in counts),
        prefetch_fills=sum(c.prefetches_issued for c in counts),
        snoop_broadcasts=remote + memory if snooping else 0,
    )


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
