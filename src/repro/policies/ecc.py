"""Elastic Cooperative Caching (Herrero et al., ISCA 2010), re-implemented
the way the paper under reproduction did (Section 5): without the original
distributed structures, tracking each block's region with one extra bit.

Every cache splits each set into a *private* region (its own lines) and a
*shared* region (lines spilled in by peers); a per-cache way count ``P``
bounds the private region.  Periodically each cache repartitions
elastically from its own demand: heavy local missing grows the private
region, light demand shrinks it, donating ways to peers.  Evicted last-copy
private lines are spilled to the peer currently advertising the most shared
capacity (the Spill Allocator), and land in that cache's shared region.

The known weaknesses the paper exploits (Section 6.1): partitioning wastes
ways when a region's allocation is not useful, and at least one way is
always reserved for each region whether profitable or not.
"""

from __future__ import annotations

from typing import Optional

from repro.core.states import SetRole
from repro.policies.base import LLCPolicy

#: Repartition thresholds on the per-interval off-chip miss ratio.
GROW_MISS_RATIO = 0.25
SHRINK_MISS_RATIO = 0.10
#: The private region never shrinks below a quarter of the ways, so a
#: quiet core's own working set survives while it donates the rest.
MIN_PRIVATE_FRACTION = 0.25


class ElasticCooperativeCaching(LLCPolicy):
    """ECC with per-block region bits and elastic way repartitioning."""

    name = "ecc"
    respill_spilled = False

    def __init__(self) -> None:
        super().__init__()
        self.private_ways: list[int] = []
        self._interval_accesses: list[int] = []
        self._interval_misses: list[int] = []
        #: Per cache, its array's ``stack_view``: the regions are read
        #: off the live recency stack, without a copy.
        self._stack_views: Optional[list] = None

    def _setup(self) -> None:
        assert self.geometry is not None
        half = max(1, self.geometry.ways // 2)
        self.private_ways = [half] * self.num_caches
        self._interval_accesses = [0] * self.num_caches
        self._interval_misses = [0] * self.num_caches

    def bind(self, hierarchy) -> None:
        self._stack_views = [l2.stack_view for l2 in hierarchy.l2s]

    # ------------------------------------------------------------------ #
    # Observation and repartitioning
    # ------------------------------------------------------------------ #

    def on_access(self, cache_id: int, set_idx: int, outcome: str) -> None:
        self._interval_accesses[cache_id] += 1
        if outcome == "miss":
            self._interval_misses[cache_id] += 1

    def tick(self) -> None:
        assert self.geometry is not None
        max_private = self.geometry.ways - 1  # one way always stays shared
        min_private = max(1, int(self.geometry.ways * MIN_PRIVATE_FRACTION))
        for cache_id in range(self.num_caches):
            accesses = self._interval_accesses[cache_id]
            if accesses:
                ratio = self._interval_misses[cache_id] / accesses
                if ratio > GROW_MISS_RATIO and self.private_ways[cache_id] < max_private:
                    self.private_ways[cache_id] += 1
                elif ratio < SHRINK_MISS_RATIO and self.private_ways[cache_id] > min_private:
                    self.private_ways[cache_id] -= 1
            self._interval_accesses[cache_id] = 0
            self._interval_misses[cache_id] = 0

    # ------------------------------------------------------------------ #
    # Spill decisions
    # ------------------------------------------------------------------ #

    def should_spill(self, cache_id: int, set_idx: int) -> bool:
        return self.num_caches > 1

    def select_receiver(self, cache_id: int, set_idx: int) -> Optional[int]:
        """The peer advertising the most shared ways (the Spill Allocator)."""
        assert self.geometry is not None
        best_capacity = 0
        best: list[int] = []
        for j in range(self.num_caches):
            if j == cache_id:
                continue
            capacity = self.geometry.ways - self.private_ways[j]
            if capacity > best_capacity:
                best_capacity = capacity
                best = [j]
            elif capacity == best_capacity and capacity > 0:
                best.append(j)
        if not best:
            return None
        return best[0] if len(best) == 1 else self.rng.choice(best)

    # ------------------------------------------------------------------ #
    # Region-aware victim selection
    # ------------------------------------------------------------------ #

    def choose_victim_position(
        self, cache_id: int, set_idx: int, kind: str
    ) -> Optional[int]:
        assert self._stack_views is not None and self.geometry is not None
        ways = self.geometry.ways
        lines = self._stack_views[cache_id](set_idx)
        if len(lines) < ways:
            return None
        # One pass over the live stack (MRU first): each region's size
        # and the position of its least-recent line.
        shared = 0
        last_shared = last_private = -1
        for pos, line in enumerate(lines):
            if line.shared_region:
                shared += 1
                last_shared = pos
            else:
                last_private = pos
        private = len(lines) - shared
        p = self.private_ways[cache_id]
        shared_allocation = ways - p
        if kind == "spill":
            # Spilled-in lines live in the shared region: recycle its LRU
            # line once the region is at its allocation, otherwise claim a
            # way from the private region's LRU end.
            if shared >= shared_allocation and shared:
                return last_shared
            if private:
                return last_private
            return last_shared
        # Demand fill: stay within the private allocation.
        if private >= p and private:
            return last_private
        if shared > shared_allocation and shared:
            return last_shared
        return None  # plain LRU

    def role(self, cache_id: int, set_idx: int) -> SetRole:
        assert self.geometry is not None
        if self.private_ways[cache_id] >= self.geometry.ways - 1:
            return SetRole.SPILLER
        return SetRole.RECEIVER
