"""Receiver selection for spills: the Spill Allocator.

ASCC spills a last-copy victim from a spiller set to the *receiver* set
with the same index in another private cache, choosing the cache whose
covering saturation counter is lowest and breaking ties randomly (paper
Section 3.1).  In hardware this is an intermediate per-cache table — one
entry per set holding the current best candidate, updated on every peer
miss (the paper adapts ECC's Spill Allocator for scalability).  Functionally
that table always contains the argmin over peers, which is what this module
computes directly.
"""

from __future__ import annotations

from random import Random
from typing import Optional, Sequence

from repro.core.saturation import SetStateBank


def select_min_ssl_receiver(
    banks: Sequence[SetStateBank],
    spiller: int,
    set_idx: int,
    rng: Random,
) -> Optional[int]:
    """Peer cache with the lowest SSL below K for ``set_idx``, ties random.

    Returns ``None`` when no peer set is in the receiver state — the signal
    ASCC interprets as a chip-wide capacity problem.
    """
    best_value: Optional[int] = None
    best: list[int] = []
    for cache_id, bank in enumerate(banks):
        if cache_id == spiller:
            continue
        # ``bank.value(set_idx)``, read off the bank's counter list.
        value = bank._raw[set_idx >> bank._d] >> bank.fraction_bits
        if value >= bank.ways:  # not a receiver
            continue
        if best_value is None or value < best_value:
            best_value = value
            best = [cache_id]
        elif value == best_value:
            best.append(cache_id)
    if not best:
        return None
    return best[0] if len(best) == 1 else rng.choice(best)


def select_random_receiver(
    banks: Sequence[SetStateBank],
    spiller: int,
    set_idx: int,
    rng: Random,
) -> Optional[int]:
    """Any peer cache in the receiver state, chosen uniformly (LRS)."""
    candidates = [
        cache_id
        for cache_id, bank in enumerate(banks)
        if cache_id != spiller and bank.value(set_idx) < bank.ways
    ]
    if not candidates:
        return None
    return candidates[0] if len(candidates) == 1 else rng.choice(candidates)
