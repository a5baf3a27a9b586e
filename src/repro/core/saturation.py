"""Saturation counters (Set Saturation Levels) with variable granularity.

One saturating counter tracks the pressure on a group of ``2**D`` adjacent
sets: it increases on a miss and decreases on a hit, working in the range
``[0, 2K-1]`` for a ``K``-way cache (paper Section 3, following the Set
Balancing Cache design).  The counter for set index ``I`` is ``I >> D`` —
exactly the shifter-based indexing of the AVGCC hardware (Section 4.1).

Alongside each counter lives the *insertion policy bit* that switches the
covered sets between MRU insertion and the capacity-oriented policy
(SABIP/BIP), and — for the QoS extension — the counters support fixed-point
increments (4.3 format values incremented by a 1.3-format QoSRatio).
"""

from __future__ import annotations

from repro.core.states import SetRole, role_for_ssl


class SetStateBank:
    """Per-cache bank of SSL counters plus insertion-policy bits.

    Parameters
    ----------
    num_sets:
        Number of sets in the cache (and maximum number of counters).
    ways:
        Cache associativity ``K``; counters saturate at ``2K - 1``.
    granularity_log2:
        Initial ``D``: each counter covers ``2**D`` sets.
    fraction_bits:
        Fixed-point fraction bits for QoS (0 = plain integer counters).
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        granularity_log2: int = 0,
        fraction_bits: int = 0,
    ) -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a positive power of two")
        if ways <= 0:
            raise ValueError("ways must be positive")
        max_d = num_sets.bit_length() - 1
        if not 0 <= granularity_log2 <= max_d:
            raise ValueError(f"granularity_log2 must be in [0, {max_d}]")
        self.num_sets = num_sets
        self.ways = ways
        self.fraction_bits = fraction_bits
        self._unit = 1 << fraction_bits
        self._max_raw = (2 * ways - 1) * self._unit
        #: ``K`` in raw units: a counter below it covers receiver sets.
        self._receiver_raw = ways << fraction_bits
        self._d = granularity_log2
        self._max_d = max_d
        # Counters start at zero: a set that is never accessed stays at the
        # bottom of the range, so quiet (underutilized) sets sort first in
        # the min-SSL receiver selection.  Re-graining re-initialises to
        # K-1, as Section 4.1 specifies for newly created counters.
        self._raw = [0] * num_sets  # only the first num_sets >> D are used
        self._capacity_mode = [False] * num_sets
        # Spiller stickiness: once a counter saturates, its sets remain
        # spillers (repairs to donated space stay immediate) until the
        # counter falls below K — a one-bit hysteresis per counter.
        self._sticky_spiller = [False] * num_sets
        self._miss_increment_raw = self._unit

    # ------------------------------------------------------------------ #
    # Granularity
    # ------------------------------------------------------------------ #

    @property
    def granularity_log2(self) -> int:
        """Current ``D``: each counter covers ``2**D`` sets."""
        return self._d

    @property
    def max_granularity_log2(self) -> int:
        return self._max_d

    @property
    def counters_in_use(self) -> int:
        return self.num_sets >> self._d

    def counter_index(self, set_idx: int) -> int:
        """Hardware indexing: ``I >> D``."""
        return set_idx >> self._d

    def set_granularity(self, granularity_log2: int) -> None:
        """Re-grain: new counters start at ``K-1`` with MRU insertion.

        Mirrors the AVGCC rule that after halving/duplicating, "the new
        [counters] are initialized to K-1 and the associated insertion
        policies are reset to the traditional MRU one".
        """
        if not 0 <= granularity_log2 <= self._max_d:
            raise ValueError(f"granularity_log2 must be in [0, {self._max_d}]")
        self._d = granularity_log2
        init = (self.ways - 1) * self._unit
        in_use = self.counters_in_use
        for i in range(in_use):
            self._raw[i] = init
            self._capacity_mode[i] = False
            self._sticky_spiller[i] = False

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def set_miss_increment(self, increment: float) -> None:
        """QoS hook: misses add ``increment`` (quantized) instead of 1."""
        raw = round(increment * self._unit)
        self._miss_increment_raw = max(0, min(raw, self._unit))

    def on_hit(self, set_idx: int) -> int:
        """Decrease the covering counter by one unit; return its index."""
        ctr = set_idx >> self._d
        raw = self._raw[ctr] - self._unit
        self._raw[ctr] = raw if raw > 0 else 0
        if raw < self._receiver_raw:
            self._sticky_spiller[ctr] = False
        return ctr

    def on_pressure(self, set_idx: int) -> int:
        """A donated way was consumed in this group (a spill-in landed).

        Receiving costs capacity, so it raises the SSL like a miss does —
        this is the feedback that makes overloaded receivers saturate and
        drop out of the receiver pool.  Does not set spiller stickiness:
        received load is not evidence the *owner* needs more ways.
        """
        ctr = set_idx >> self._d
        raw = self._raw[ctr] + self._unit
        self._raw[ctr] = raw if raw < self._max_raw else self._max_raw
        return ctr

    def decay(self) -> None:
        """Periodic one-unit decay of every in-use counter.

        Lets quiet sets that absorbed spills drift back into the receiver
        pool once the pressure stops (their owner never accesses them, so
        nothing else would ever decrement their counters).
        """
        threshold = self.ways << self.fraction_bits
        for ctr in range(self.counters_in_use):
            raw = self._raw[ctr] - self._unit
            if raw < 0:
                raw = 0
            self._raw[ctr] = raw
            if raw < threshold:
                self._sticky_spiller[ctr] = False

    def on_miss(self, set_idx: int) -> int:
        """Increase the covering counter (saturating); return its index."""
        ctr = set_idx >> self._d
        raw = self._raw[ctr] + self._miss_increment_raw
        if raw >= self._max_raw:
            raw = self._max_raw
            self._sticky_spiller[ctr] = True
        self._raw[ctr] = raw
        return ctr

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def value(self, set_idx: int) -> int:
        """Integer SSL of the counter covering ``set_idx`` (floor)."""
        return self._raw[set_idx >> self._d] >> self.fraction_bits

    def counter_value(self, ctr: int) -> int:
        """Integer SSL of counter ``ctr`` directly."""
        return self._raw[ctr] >> self.fraction_bits

    def role(self, set_idx: int) -> SetRole:
        if self._sticky_spiller[set_idx >> self._d]:
            return SetRole.SPILLER
        return role_for_ssl(self.value(set_idx), self.ways)

    def is_sticky_spiller(self, set_idx: int) -> bool:
        return self._sticky_spiller[set_idx >> self._d]

    def is_receiver(self, set_idx: int) -> bool:
        return self.value(set_idx) < self.ways

    def in_capacity_mode(self, set_idx: int) -> bool:
        """Whether the covering group currently uses the capacity policy."""
        return self._capacity_mode[set_idx >> self._d]

    def enter_capacity_mode(self, set_idx: int) -> None:
        self._capacity_mode[set_idx >> self._d] = True

    def leave_capacity_mode(self, set_idx: int) -> None:
        self._capacity_mode[set_idx >> self._d] = False

    def capacity_mode_of_counter(self, ctr: int) -> bool:
        return self._capacity_mode[ctr]

    def values_in_use(self) -> list[int]:
        """Integer SSLs of all counters currently in use."""
        return [raw >> self.fraction_bits for raw in self._raw[: self.counters_in_use]]

    def low_value_count(self) -> int:
        """How many in-use counters are below ``K`` (the B condition)."""
        threshold = self.ways << self.fraction_bits
        return sum(1 for raw in self._raw[: self.counters_in_use] if raw < threshold)

    def similar_pair_count(self) -> int:
        """Pairs of neighbour counters with ``|a-b| <= 2`` and equal policy.

        This is the quantity the AVGCC ``A`` counter tracks incrementally in
        hardware; recomputing it here gives tests an oracle.
        """
        pairs = 0
        in_use = self.counters_in_use
        for i in range(0, in_use - 1, 2):
            a = self._raw[i] >> self.fraction_bits
            b = self._raw[i + 1] >> self.fraction_bits
            if abs(a - b) <= 2 and self._capacity_mode[i] == self._capacity_mode[i + 1]:
                pairs += 1
        return pairs
