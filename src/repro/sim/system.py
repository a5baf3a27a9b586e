"""CMP memory hierarchies: private LLCs with cooperation, and a shared LLC.

:class:`PrivateHierarchy` wires per-core L1s, private L2s, the functional
MESI broadcast (presence directory) and one :class:`~repro.policies.base.
LLCPolicy`, and implements the complete access flow of the paper's system:

* local L2 hit (9 cycles), with MESI write upgrades;
* remote L2 hit (25 cycles) found by the broadcast.  A *spilled* line is
  served **in place**: the receiver promotes it and forwards the data, and
  the requester does not re-allocate it — this is what makes a spill
  steady-state stable and what turns the paper's Figure 10 "local hits"
  into persistent "remote hits".  A *genuinely shared* line (multithreaded
  workloads) is allocated locally with M->S downgrades and writebacks;
* memory fetch (remote probe + 460 cycles);
* victim disposition on every allocation: swap into a slot freed by a
  migrating line (ASCC Section 3.2), spill to a receiver chosen by the
  policy, or eviction to memory with writeback of dirty lines;
* inclusion: the owning L1 is back-invalidated whenever its L2 loses a
  line, including when the line is spilled away.  Every L1 fill carries
  the L2's :class:`~repro.cache.cache.Line`, so the engine can retire a
  store hit on a line already in M without calling :meth:`write_through`.

The directory's holder map is read directly on the miss path: after a
local miss the requester is never a holder, so the holder set *is* the
peer list, and a victim (held by its own cache) is the last copy exactly
when it is the only holder.  Policy hooks the scheme inherits from
:class:`~repro.policies.base.LLCPolicy` (``on_access``, ``tick``, and the
``choose_victim_position``/``insertion_position`` defaults) are bound to
``None`` and skipped, with the default's answer inlined.

:class:`SharedHierarchy` models the Section 6.1 comparison point — a banked
shared LLC of the same aggregate capacity accessed at an interleaved-bank
average latency.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Optional

from repro.cache.cache import CacheArray, Line, resolve_backend
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import L1Cache
from repro.coherence.directory import PresenceDirectory
from repro.coherence.protocol import Mesi
from repro.cpu.prefetch import StridePrefetcher
from repro.interconnect.bus import BusTraffic
from repro.policies.base import LLCPolicy
from repro.sim.config import SystemConfig
from repro.sim.results import CoreStats

#: Access outcomes returned by ``access``.
LOCAL, REMOTE, MEMORY = "local", "remote", "memory"


class MemoryHierarchy(abc.ABC):
    """What the engine needs from a memory system below the L1s."""

    l1s: list[L1Cache]

    #: Optional :class:`~repro.obs.observer.Observer` receiving typed
    #: events (spill/swap/...).  ``None`` keeps every emission site on
    #: its zero-cost branch; the engine sets this when one is attached.
    observer = None

    #: Optional :class:`~repro.verify.sanitizer.InvariantChecker`.  Same
    #: zero-cost-when-off contract as ``observer``: every check site is
    #: guarded by ``is not None`` and sits on miss/coherence paths — the
    #: local-hit fast path never looks at it.  Attached by
    #: ``repro.verify.attach_sanitizer`` (``--sanitize`` /
    #: ``REPRO_SANITIZE=1`` / ``RunSpec.sanitize``).
    sanitizer = None

    @abc.abstractmethod
    def access(self, core_id: int, line_addr: int, is_write: bool, pc: int) -> float:
        """Handle an L1-missing access; return its latency in cycles."""

    @abc.abstractmethod
    def write_through(self, core_id: int, line_addr: int) -> None:
        """Propagate an L1 store hit to the level below (write-through L1).

        The engine skips the call when the L1 entry's line is already
        MODIFIED and only bumps ``wt_writes``, which is all this method
        would do for such a line.
        """


class PrivateHierarchy(MemoryHierarchy):
    """Private per-core L2s cooperating under an :class:`LLCPolicy`."""

    def __init__(self, config: SystemConfig, policy: LLCPolicy) -> None:
        self.config = config
        self.policy = policy
        self.rng = Random(config.seed)
        self.directory = PresenceDirectory(config.num_cores)
        array_cls = resolve_backend(config.cache_backend)
        self.l2s = [
            array_cls(config.l2_geometry, cache_id=i, directory=self.directory)
            for i in range(config.num_cores)
        ]
        self.l1s = [L1Cache(config.l1_geometry) for _ in range(config.num_cores)]
        self.stats = [CoreStats(core_id=i) for i in range(config.num_cores)]
        self.traffic = BusTraffic()
        self.prefetchers: Optional[list[StridePrefetcher]] = None
        if config.prefetch is not None:
            self.prefetchers = [
                StridePrefetcher(config.prefetch) for _ in range(config.num_cores)
            ]
        self._accesses_since_tick = 0
        self._tick_interval = config.tick_interval
        self._lat = config.latencies
        # Hot-path constants and per-core bound methods: one list index
        # instead of two attribute chases plus a method bind per call.
        self._set_mask = config.l2_geometry.sets - 1
        self._lat_local = config.latencies.l2_local_hit
        self._l2_lookup = [l2.lookup for l2 in self.l2s]
        self._l2_probe = [l2.probe for l2 in self.l2s]
        self._l1_allocate = [l1.allocate for l1 in self.l1s]
        #: ``line addr -> holder ids``, shared with the directory.
        self._holders = self.directory._holders
        policy.attach(config.num_cores, config.l2_geometry, Random(config.seed ^ 0x5BD1))
        policy.bind(self)
        # Hooks the scheme inherits are no-ops (or constant answers): bind
        # them to None so the access path skips the call.
        self._policy_on_access = _own_hook(policy, "on_access")
        self._policy_tick = _own_hook(policy, "tick")
        self._policy_victim_position = _own_hook(policy, "choose_victim_position")
        self._policy_insertion_position = _own_hook(policy, "insertion_position")

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #

    def access(self, core_id: int, line_addr: int, is_write: bool, pc: int) -> float:
        stats = self.stats[core_id]
        set_idx = line_addr & self._set_mask
        tick = self._policy_tick
        if tick is not None:
            ticks = self._accesses_since_tick + 1
            if ticks >= self._tick_interval:
                self._accesses_since_tick = 0
                tick()
            else:
                self._accesses_since_tick = ticks
        if stats.recording:
            stats.l2_accesses += 1

        line = self._l2_lookup[core_id](line_addr)
        if self.prefetchers is not None:
            self._run_prefetcher(core_id, pc, line_addr)

        if line is not None:
            on_access = self._policy_on_access
            if on_access is not None:
                on_access(core_id, set_idx, "local")
            self.traffic.local_hits += 1
            if stats.recording:
                stats.l2_local_hits += 1
            if line.prefetched:
                if stats.recording:
                    stats.prefetches_useful += 1
                line.prefetched = False
            if is_write and line.state is not Mesi.MODIFIED:
                self._write_upgrade(core_id, line)
            self._l1_allocate[core_id](line_addr, line)
            return self._lat_local

        # Local miss: snoop the chip (functional broadcast).  The
        # requester holds no copy, so every holder is a peer.
        self.traffic.snoop_broadcasts += 1
        holders = self._holders.get(line_addr)
        if holders:
            return self._remote_hit(
                core_id, line_addr, set_idx, is_write, list(holders)
            )
        return self._memory_fetch(core_id, line_addr, set_idx, is_write)

    def write_through(self, core_id: int, line_addr: int) -> None:
        """L1 store hit: update the inclusive L2 copy's state to M."""
        line = self._l2_probe[core_id](line_addr)
        if line is None:  # pragma: no cover - inclusion guarantees presence
            raise AssertionError(f"inclusion violated for line {line_addr:#x}")
        stats = self.stats[core_id]
        if stats.recording:
            stats.wt_writes += 1
        if line.state is not Mesi.MODIFIED:
            self._write_upgrade(core_id, line)

    # ------------------------------------------------------------------ #
    # Miss resolution
    # ------------------------------------------------------------------ #

    def _remote_hit(
        self,
        core_id: int,
        line_addr: int,
        set_idx: int,
        is_write: bool,
        holders: list[int],
    ) -> float:
        lat = self.config.latencies
        stats = self.stats[core_id]
        self.traffic.remote_hits += 1
        holder = holders[0] if len(holders) == 1 else self.rng.choice(holders)
        remote_line = self.l2s[holder].probe(line_addr)
        assert remote_line is not None
        if stats.recording:
            stats.l2_remote_hits += 1
            if remote_line.spilled:
                stats.hits_on_spilled += 1

        on_access = self._policy_on_access
        if on_access is not None:
            on_access(core_id, set_idx, "remote")

        if remote_line.spilled and len(holders) == 1:
            if not self.policy.wants_swap(core_id, set_idx):
                # Swap-less schemes serve a spilled line in place: the
                # receiver promotes it (it proved useful) and forwards the
                # data; the requester does not re-allocate it, so every
                # future access keeps costing the remote-hit latency
                # (Figure 10's persistent remote fraction).
                self.l2s[holder].lookup(line_addr)  # promote to MRU
                if is_write:
                    remote_line.state = Mesi.MODIFIED
                san = self.sanitizer
                if san is not None:
                    san.after_access(holder, line_addr)
                return lat.l2_remote_hit
            # ASCC-family swap (Section 3.2): the requested line migrates
            # home and the local victim — when it is the last copy — takes
            # the slot the migration just freed.  The pair of last copies
            # stays on chip with no receiver-pool arbitration, which is
            # what keeps a cooperatively-held working set resident.
            new_state = (
                Mesi.MODIFIED
                if remote_line.state is Mesi.MODIFIED or is_write
                else Mesi.EXCLUSIVE
            )
            self._invalidate_at(holder, line_addr)
            self._allocate_local(core_id, line_addr, set_idx, new_state, holder)
            return lat.l2_remote_hit

        migrated_holder: Optional[int] = None
        san = self.sanitizer
        if is_write:
            # MESI write: all remote copies are invalidated.
            new_state = Mesi.MODIFIED
            for h in holders:
                if san is not None:
                    san.check_transition(h, line_addr, "remote_write")
                self._invalidate_at(h, line_addr)
            migrated_holder = holder
        else:
            # Genuinely shared read: remote copies downgrade to S.
            new_state = Mesi.SHARED
            for h in holders:
                peer = self.l2s[h].probe(line_addr)
                if peer is not None and peer.state is Mesi.MODIFIED:
                    if san is not None:
                        san.on_transition(h, line_addr, peer.state, "remote_read")
                    self._writeback(h)
                    peer.state = Mesi.SHARED
                elif peer is not None and peer.state is Mesi.EXCLUSIVE:
                    if san is not None:
                        san.on_transition(h, line_addr, peer.state, "remote_read")
                    peer.state = Mesi.SHARED

        self._allocate_local(core_id, line_addr, set_idx, new_state, migrated_holder)
        return lat.l2_remote_hit

    def _memory_fetch(
        self, core_id: int, line_addr: int, set_idx: int, is_write: bool
    ) -> float:
        lat = self.config.latencies
        stats = self.stats[core_id]
        on_access = self._policy_on_access
        if on_access is not None:
            on_access(core_id, set_idx, "miss")
        self.traffic.memory_fetches += 1
        if stats.recording:
            stats.l2_memory_fetches += 1
        new_state = Mesi.MODIFIED if is_write else Mesi.EXCLUSIVE
        self._allocate_local(core_id, line_addr, set_idx, new_state, None)
        # The broadcast that found nobody ran concurrently with the fetch.
        return lat.l2_remote_hit + lat.memory

    # ------------------------------------------------------------------ #
    # Allocation and victim disposition
    # ------------------------------------------------------------------ #

    def _allocate_local(
        self,
        core_id: int,
        line_addr: int,
        set_idx: int,
        state: Mesi,
        migrated_holder: Optional[int],
    ) -> None:
        """Fill the requester's L2 (disposing of a victim) and its L1."""
        cache = self.l2s[core_id]
        choose = self._policy_victim_position
        if choose is None:  # plain LRU; None while the set has a free way
            victim = cache.victim_candidate(set_idx)
        elif cache.occupancy(set_idx) >= cache.geometry.ways:
            victim = cache.victim_candidate(
                set_idx, choose(core_id, set_idx, "demand")
            )
        else:
            victim = None
        san = self.sanitizer
        if victim is not None:
            # The victim is resident here, so it is the last on-chip
            # copy exactly when this cache is its only holder.
            last_copy = len(self._holders[victim.addr]) == 1
            cache.evict(victim.addr)
            self.l1s[core_id].invalidate(victim.addr)
            if san is not None:
                san.on_line_removed(core_id, victim)
                san.after_back_invalidate(core_id, victim.addr)
            self._dispose_victim(core_id, set_idx, victim, last_copy, migrated_holder)
            # Disposal copied whatever it needed (spill fills build a new
            # line from the victim's fields), so the slot can be recycled.
            cache.release(victim)
        insertion = self._policy_insertion_position
        pos = 0 if insertion is None else insertion(core_id, set_idx)
        cache.fill_fields(line_addr, state, position=pos)
        self._l1_allocate[core_id](line_addr, cache.probe(line_addr))
        if san is not None:
            san.after_access(core_id, line_addr)

    def _dispose_victim(
        self,
        core_id: int,
        set_idx: int,
        victim: Line,
        last_copy: bool,
        migrated_holder: Optional[int],
    ) -> None:
        if not last_copy:
            # Another on-chip copy survives; MESI guarantees ours is clean.
            return
        policy = self.policy
        if migrated_holder is not None and policy.wants_swap(core_id, set_idx):
            # Swap: the victim takes the slot just freed by the migrating
            # line, keeping both last copies on chip (Section 3.2).
            self._place_spilled(core_id, migrated_holder, set_idx, victim, swap=True)
            return
        if (not victim.spilled or policy.respill_spilled) and policy.should_spill(
            core_id, set_idx
        ):
            receiver = policy.select_receiver(core_id, set_idx)
            if receiver is not None and receiver != core_id:
                self._place_spilled(core_id, receiver, set_idx, victim, swap=False)
                return
        self._evict_to_memory(core_id, victim)

    def _place_spilled(
        self, src: int, dst: int, set_idx: int, victim: Line, swap: bool
    ) -> None:
        cache = self.l2s[dst]
        policy = self.policy
        if cache.occupancy(set_idx) >= cache.geometry.ways:
            choose = self._policy_victim_position
            r_pos = None if choose is None else choose(dst, set_idx, "spill")
            if r_pos is None and policy.spill_victim_prefers_spilled:
                # ASCC-family receiver rule: recycle the least-recent line
                # that was itself spilled in, before touching any of the
                # receiver set's own working set (uses the per-line
                # spilled bit the spill mechanism already carries).
                lines = cache.set_lines(set_idx)
                for pos in range(len(lines) - 1, -1, -1):
                    if lines[pos].spilled:
                        r_pos = pos
                        break
            r_victim = cache.victim_candidate(set_idx, r_pos)
            if r_victim is not None:
                r_last = len(self._holders[r_victim.addr]) == 1
                cache.evict(r_victim.addr)
                self.l1s[dst].invalidate(r_victim.addr)
                san = self.sanitizer
                if san is not None:
                    san.on_line_removed(dst, r_victim)
                    san.after_back_invalidate(dst, r_victim.addr)
                if r_last:
                    # No cascading spills: displaced lines go to memory.
                    self._evict_to_memory(dst, r_victim)
                cache.release(r_victim)
        cache.fill_fields(
            victim.addr,
            victim.state,
            True,  # spilled
            True,  # shared_region
            position=policy.spill_insertion_position(dst, set_idx),
        )
        src_stats, dst_stats = self.stats[src], self.stats[dst]
        if swap:
            self.traffic.swaps += 1
            if src_stats.recording:
                src_stats.swaps += 1
        else:
            self.traffic.spills += 1
            if src_stats.recording:
                src_stats.spills_out += 1
            if dst_stats.recording:
                dst_stats.spills_in += 1
            policy.on_spill(src, dst, set_idx)
        observer = self.observer
        if observer is not None:
            observer.emit(
                "swap" if swap else "spill",
                src=src,
                dst=dst,
                set=set_idx,
                addr=victim.addr,
            )
        san = self.sanitizer
        if san is not None:
            san.on_spill_fill(src, dst, set_idx, victim.addr, swap)

    # ------------------------------------------------------------------ #
    # Coherence helpers
    # ------------------------------------------------------------------ #

    def _write_upgrade(self, core_id: int, line: Line) -> None:
        """Local write hit on a line not yet in M: invalidate remote
        copies, go to M."""
        san = self.sanitizer
        if san is not None:
            san.on_transition(core_id, line.addr, line.state, "write_hit")
        peers = [h for h in self._holders[line.addr] if h != core_id]
        for h in peers:
            self._invalidate_at(h, line.addr)
        if peers and self.stats[core_id].recording:
            self.stats[core_id].invalidations_sent += len(peers)
        line.state = Mesi.MODIFIED

    def _invalidate_at(self, holder: int, line_addr: int) -> None:
        cache = self.l2s[holder]
        line = cache.invalidate(line_addr)
        san = self.sanitizer
        if line is not None:
            if san is not None:
                san.on_line_removed(holder, line)
            cache.release(line)
        self.l1s[holder].invalidate(line_addr)
        self.traffic.invalidations += 1
        if san is not None:
            san.after_back_invalidate(holder, line_addr)

    def _writeback(self, core_id: int) -> None:
        self.traffic.writebacks += 1
        if self.stats[core_id].recording:
            self.stats[core_id].writebacks += 1

    def _evict_to_memory(self, core_id: int, victim: Line) -> None:
        if victim.state is Mesi.MODIFIED:
            self._writeback(core_id)

    # ------------------------------------------------------------------ #
    # Prefetch and maintenance
    # ------------------------------------------------------------------ #

    def _run_prefetcher(self, core_id: int, pc: int, line_addr: int) -> None:
        assert self.prefetchers is not None
        cache = self.l2s[core_id]
        stats = self.stats[core_id]
        for target in self.prefetchers[core_id].observe(pc, line_addr):
            if target < 0 or cache.contains(target) or target in self._holders:
                continue
            set_idx = target & cache.set_mask
            san = self.sanitizer
            if cache.occupancy(set_idx) >= cache.geometry.ways:
                victim = cache.victim_candidate(set_idx)
                assert victim is not None
                last = len(self._holders[victim.addr]) == 1
                cache.evict(victim.addr)
                self.l1s[core_id].invalidate(victim.addr)
                if san is not None:
                    san.on_line_removed(core_id, victim)
                    san.after_back_invalidate(core_id, victim.addr)
                if last:
                    self._evict_to_memory(core_id, victim)
                cache.release(victim)
            # Install near LRU so useless prefetches pollute minimally.
            pos = max(0, cache.geometry.ways - 2)
            cache.fill_fields(target, Mesi.EXCLUSIVE, prefetched=True, position=pos)
            if san is not None:
                san.check_set(core_id, set_idx)
            self.traffic.prefetch_fills += 1
            if stats.recording:
                stats.prefetches_issued += 1

    # ------------------------------------------------------------------ #
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Verify directory/cache consistency and MESI exclusivity."""
        seen: dict[int, set[int]] = {}
        for cache in self.l2s:
            for line in cache.iter_lines():
                seen.setdefault(line.addr, set()).add(cache.cache_id)
                if line.state in (Mesi.MODIFIED, Mesi.EXCLUSIVE):
                    holders = self.directory.holders(line.addr)
                    if len(holders) != 1:
                        raise AssertionError(
                            f"{line.state} line {line.addr:#x} has holders {holders}"
                        )
        for addr, holders in seen.items():
            if frozenset(holders) != self.directory.holders(addr):
                raise AssertionError(f"directory desync for line {addr:#x}")
        for i, l1 in enumerate(self.l1s):
            for addr in l1.resident_addrs():
                if not self.l2s[i].contains(addr):
                    raise AssertionError(
                        f"inclusion violated: L1[{i}] holds {addr:#x}"
                    )


def _own_hook(policy: LLCPolicy, name: str):
    """``policy``'s bound hook ``name``, or ``None`` when its class
    inherits :class:`LLCPolicy`'s default.

    Class-level wrappers installed before the hierarchy is built (the
    layer-ledger benchmark's) keep the identity test valid.
    """
    if getattr(type(policy), name) is getattr(LLCPolicy, name):
        return None
    return getattr(policy, name)


class SharedHierarchy(MemoryHierarchy):
    """Banked shared LLC of aggregate capacity (Section 6.1 comparison).

    Addresses interleave across banks; following the paper, each access is
    charged the *average* bank latency, which grows with the core count.
    All caches are write-back in this configuration.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        aggregate = CacheGeometry(
            config.l2_geometry.size_bytes * config.num_cores,
            config.l2_geometry.ways,
            config.l2_geometry.line_bytes,
        )
        self.llc = CacheArray(aggregate)
        self.l1s = [L1Cache(config.l1_geometry) for _ in range(config.num_cores)]
        self.stats = [CoreStats(core_id=i) for i in range(config.num_cores)]
        self.traffic = BusTraffic()
        self._latency = config.latencies.shared_llc(config.num_cores)

    def access(self, core_id: int, line_addr: int, is_write: bool, pc: int) -> float:
        stats = self.stats[core_id]
        if stats.recording:
            stats.l2_accesses += 1
        line = self.llc.lookup(line_addr)
        if line is not None:
            if is_write:
                line.state = Mesi.MODIFIED
            self.traffic.local_hits += 1
            if stats.recording:
                stats.l2_local_hits += 1
            self.l1s[core_id].allocate(line_addr, line)
            return self._latency
        self.traffic.memory_fetches += 1
        if stats.recording:
            stats.l2_memory_fetches += 1
        state = Mesi.MODIFIED if is_write else Mesi.EXCLUSIVE
        victim = self.llc.fill_fields(line_addr, state, position=0)
        if victim is not None:
            for l1 in self.l1s:
                l1.invalidate(victim.addr)
            if victim.state is Mesi.MODIFIED:
                self.traffic.writebacks += 1
                if stats.recording:
                    stats.writebacks += 1
            self.llc.release(victim)
        self.l1s[core_id].allocate(line_addr, self.llc.probe(line_addr))
        return self._latency + self.config.latencies.memory

    def write_through(self, core_id: int, line_addr: int) -> None:
        line = self.llc.probe(line_addr)
        if line is not None:
            line.state = Mesi.MODIFIED
        if self.stats[core_id].recording:
            self.stats[core_id].wt_writes += 1
