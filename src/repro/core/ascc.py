"""Adaptive Set-Granular Cooperative Caching (the paper's Section 3).

:class:`ASCC` manages every private L2 with one saturation counter per set
(or per group of sets, for the Table 1 granularity study):

* sets whose SSL saturates at ``2K-1`` are **spillers**: their last-copy
  victims are spilled to the peer **receiver** set (SSL < K) with the
  minimum SSL, ties broken randomly;
* sets with ``K <= SSL < 2K-1`` are **neutral** — they neither spill nor
  receive (the Figure 5 ablation drops this state);
* when a spiller finds no receiver anywhere, the chip has a capacity
  problem: the set's insertion policy flips to SABIP (Section 3.2) and
  reverts to MRU once its SSL falls below ``K``;
* swaps keep both last copies on chip when a migrating remote hit frees a
  slot (Section 3.2).

The same class, reconfigured, yields every intermediate design of the
Figure 4 breakdown (LRS, LMS, GMS, LMS+BIP, GMS+SABIP) and the ASCC-2S
ablation; see :mod:`repro.core.intermediate`.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.insertion import DEFAULT_EPSILON, InsertionPolicy, insertion_position
from repro.core.saturation import SetStateBank
from repro.core.spill import select_min_ssl_receiver, select_random_receiver
from repro.core.states import SetRole, role_for_ssl, role_for_ssl_two_state
from repro.policies.base import LLCPolicy


class ASCC(LLCPolicy):
    """The configurable ASCC family.

    Parameters
    ----------
    granularity_log2:
        ``D``: each saturation counter covers ``2**D`` sets (0 = the
        original per-set ASCC; ``None`` = one counter per cache, i.e. the
        global designs of Figure 4).
    capacity_policy:
        Insertion policy used while a group is in capacity mode
        (``SABIP`` for ASCC, ``BIP`` for LMS+BIP, ``None`` disables the
        capacity mechanism entirely — LRS/LMS/GMS).
    receiver_selection:
        ``"min"`` picks the lowest-SSL receiver (ASCC), ``"random"`` any
        receiver (LRS).
    two_state:
        Drop the neutral state (ASCC-2S): spill at ``SSL >= K``.
    swap:
        Enable the Section 3.2 line swap.
    """

    name = "ascc"
    spill_victim_prefers_spilled = True

    def __init__(
        self,
        granularity_log2: Optional[int] = 0,
        capacity_policy: Optional[InsertionPolicy] = InsertionPolicy.SABIP,
        receiver_selection: str = "min",
        two_state: bool = False,
        swap: bool = True,
        epsilon: float = DEFAULT_EPSILON,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        if receiver_selection not in ("min", "random"):
            raise ValueError(f"unknown receiver selection: {receiver_selection!r}")
        self._granularity_log2 = granularity_log2
        self.capacity_policy = capacity_policy
        self.receiver_selection = receiver_selection
        self.two_state = two_state
        self.swap = swap
        self.epsilon = epsilon
        if name is not None:
            self.name = name
        self.banks: list[SetStateBank] = []

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        assert self.geometry is not None
        sets = self.geometry.sets
        max_d = sets.bit_length() - 1
        d = self._granularity_log2 if self._granularity_log2 is not None else max_d
        # A fixed granularity defined at paper scale (e.g. 4096 sets per
        # counter) clamps to "one counter per cache" on a scaled-down cache.
        d = min(d, max_d)
        self.banks = [
            self._make_bank(sets, self.geometry.ways, d)
            for _ in range(self.num_caches)
        ]

    def _make_bank(self, sets: int, ways: int, granularity_log2: int) -> SetStateBank:
        return SetStateBank(sets, ways, granularity_log2=granularity_log2)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def on_access(self, cache_id: int, set_idx: int, outcome: str) -> None:
        # The SSL is a *local* metric (Section 3): a remote hit is still a
        # local miss.  A remote hit is moreover *proof* that the set's
        # working set exceeds its local ways (the data had to live in a
        # peer), so it counts double: a set that depends on donated space
        # stays classified as a spiller — repairs after a donated line is
        # lost are immediate, and the set never degrades into a receiver
        # while it is itself short of ways.
        bank = self.banks[cache_id]
        if outcome == "local":
            bank.on_hit(set_idx)
        elif outcome == "remote":
            bank.on_miss(set_idx)
            bank.on_miss(set_idx)
        else:
            bank.on_miss(set_idx)

    # ------------------------------------------------------------------ #
    # Spill decisions
    # ------------------------------------------------------------------ #

    def should_spill(self, cache_id: int, set_idx: int) -> bool:
        # ``role(...) is SetRole.SPILLER``, read off the bank's lists.
        bank = self.banks[cache_id]
        ctr = set_idx >> bank._d
        if self.two_state:
            return bank._raw[ctr] >= bank._receiver_raw
        return bank._sticky_spiller[ctr] or bank._raw[ctr] >= bank._max_raw

    def select_receiver(self, cache_id: int, set_idx: int) -> Optional[int]:
        if self.receiver_selection == "min":
            receiver = select_min_ssl_receiver(self.banks, cache_id, set_idx, self.rng)
        else:
            receiver = select_random_receiver(self.banks, cache_id, set_idx, self.rng)
        if receiver is None and self.capacity_policy is not None and not self.warming:
            # No receiver anywhere: a chip-wide capacity problem.  Switch
            # this group to the capacity-oriented insertion policy.  (The
            # decision is suppressed while caches are still warming, so a
            # cold-start transient cannot latch a long-lived mode.)
            bank = self.banks[cache_id]
            if self.observer is not None and not bank.in_capacity_mode(set_idx):
                self.observer.emit(
                    "receive_flip", cache=cache_id, set=set_idx, mode="capacity"
                )
            bank.enter_capacity_mode(set_idx)
        return receiver

    def wants_swap(self, cache_id: int, set_idx: int) -> bool:
        return self.swap

    def on_spill(self, src_cache: int, dst_cache: int, set_idx: int) -> None:
        # Receiving consumes a donated way: the receiver group's SSL rises
        # (the spill-allocator entry is "updated with every miss in the
        # other caches"), so flooded receivers saturate and the min-SSL
        # selection spreads load to the next-most-underutilized set.
        self.banks[dst_cache].on_pressure(set_idx)

    def tick(self) -> None:
        # Slow decay so quiet sets that absorbed spills eventually rejoin
        # the receiver pool (their owner never accesses them).
        for bank in self.banks:
            bank.decay()

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def insertion_position(self, cache_id: int, set_idx: int) -> int:
        if self.capacity_policy is None:
            return 0
        bank = self.banks[cache_id]
        ctr = set_idx >> bank._d
        capacity_mode = bank._capacity_mode
        if bank._raw[ctr] < bank._receiver_raw:
            # Pressure relieved (SSL < K): revert to traditional MRU
            # insertion.
            if capacity_mode[ctr]:
                if self.observer is not None:
                    self.observer.emit(
                        "receive_flip", cache=cache_id, set=set_idx, mode="mru"
                    )
                capacity_mode[ctr] = False
            return 0
        if capacity_mode[ctr]:
            assert self.geometry is not None
            return insertion_position(
                self.capacity_policy, self.geometry.ways, self.rng, self.epsilon
            )
        return 0

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def role(self, cache_id: int, set_idx: int) -> SetRole:
        bank = self.banks[cache_id]
        value = bank.value(set_idx)
        if self.two_state:
            return role_for_ssl_two_state(value, bank.ways)
        if bank.is_sticky_spiller(set_idx):
            # Hysteresis: a saturated set keeps spilling (and never
            # receives) until its SSL falls below K.
            return SetRole.SPILLER
        return role_for_ssl(value, bank.ways)

    def describe(self) -> str:
        d = self.banks[0].granularity_log2 if self.banks else self._granularity_log2
        return f"{self.name}(D={d}, capacity={self.capacity_policy}, recv={self.receiver_selection})"


def make_ascc() -> ASCC:
    """The paper's ASCC: per-set counters, min-SSL receivers, SABIP."""
    return ASCC()


def make_ascc_2s() -> ASCC:
    """ASCC-2S (Figure 5): no neutral state."""
    return ASCC(two_state=True, name="ascc-2s")


def make_ascc_granular(sets_per_counter: int) -> ASCC:
    """Fixed-granularity ASCC_n of Table 1 (n = sets per counter)."""
    if sets_per_counter <= 0 or sets_per_counter & (sets_per_counter - 1):
        raise ValueError("sets_per_counter must be a positive power of two")
    d = sets_per_counter.bit_length() - 1
    return ASCC(granularity_log2=d, name=f"ascc/{sets_per_counter}")
