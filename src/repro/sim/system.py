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
peer list, and a victim taken off the directory was the last copy
exactly when no holder is left.  ``access`` resolves local hits, memory
fetches and remote hits on a spilled line itself; a miss makes two
array calls, ``take_victim`` and ``install``, and fills and
back-invalidates the L1s in place.  Policy hooks the scheme inherits
from :class:`~repro.policies.base.LLCPolicy` (``on_access``, ``tick``,
``should_spill``, ``wants_swap``, ``on_spill`` and the position
defaults) are bound to ``None`` and skipped, with the default's answer
inlined, and the ASCC family's ``on_access`` is bound as its per-core
SSL updates.

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
        self._ways = config.l2_geometry.ways
        self._lat_local = config.latencies.l2_local_hit
        self._lat_remote = config.latencies.l2_remote_hit
        # The broadcast that finds nobody runs concurrently with the fetch.
        self._lat_memory = config.latencies.l2_remote_hit + config.latencies.memory
        self._l2_lookup = [l2.lookup for l2 in self.l2s]
        self._l2_probe = [l2.probe for l2 in self.l2s]
        # L1 fills and back-invalidations happen in place, on each L1's
        # own state (see L1Cache.allocate/invalidate): there is one L1
        # class, and every L1 shares one geometry.
        self._l1_sets = [l1._sets for l1 in self.l1s]
        self._l1_mru = [l1._mru for l1 in self.l1s]
        self._l1_mask = self.l1s[0]._mask
        self._l1_ways = self.l1s[0]._ways
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
        self._policy_spill_position = _own_hook(policy, "spill_insertion_position")
        self._policy_wants_swap = _own_hook(policy, "wants_swap")
        self._policy_should_spill = _own_hook(policy, "should_spill")
        self._policy_on_spill = _own_hook(policy, "on_spill")
        # The ASCC family's ``on_access`` is nothing but SSL updates, so
        # bind them per core: a local hit is ``on_hit``, a memory fetch
        # ``on_miss`` and a remote hit two ``on_miss``.  Subclasses with
        # their own ``on_access`` (QoS) keep the string-outcome contract.
        from repro.core.ascc import ASCC  # at module level it cycles via the registry

        self._ssl_hit = self._ssl_miss = None
        if type(policy).on_access is ASCC.on_access:
            self._ssl_hit = [bank.on_hit for bank in policy.banks]
            self._ssl_miss = [bank.on_miss for bank in policy.banks]
            self._policy_on_access = None

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
        recording = stats.recording
        if recording:
            stats.l2_accesses += 1

        line = self._l2_lookup[core_id](line_addr)
        if self.prefetchers is not None:
            self._run_prefetcher(core_id, pc, line_addr)
        traffic = self.traffic

        if line is not None:
            if self._ssl_hit is not None:
                self._ssl_hit[core_id](set_idx)
            elif self._policy_on_access is not None:
                self._policy_on_access(core_id, set_idx, "local")
            traffic.local_hits += 1
            if recording:
                stats.l2_local_hits += 1
            if line.prefetched:
                if recording:
                    stats.prefetches_useful += 1
                line.prefetched = False
            if is_write and line.state is not Mesi.MODIFIED:
                self._write_upgrade(core_id, line)
            # L1 fill, in place.
            l1_idx = line_addr & self._l1_mask
            l1_lines = self._l1_sets[core_id][l1_idx]
            if line_addr not in l1_lines:
                if len(l1_lines) >= self._l1_ways:
                    l1_lines.popitem(last=False)
                l1_lines[line_addr] = line
                self._l1_mru[core_id][l1_idx] = line_addr
            return self._lat_local

        # Local miss: snoop the chip (functional broadcast).  The
        # requester holds no copy, so every holder is a peer.
        traffic.snoop_broadcasts += 1
        holders = self._holders.get(line_addr)
        if not holders:
            # Memory fetch.
            if self._ssl_miss is not None:
                self._ssl_miss[core_id](set_idx)
            elif self._policy_on_access is not None:
                self._policy_on_access(core_id, set_idx, "miss")
            traffic.memory_fetches += 1
            if recording:
                stats.l2_memory_fetches += 1
            self._allocate_local(
                core_id,
                line_addr,
                set_idx,
                Mesi.MODIFIED if is_write else Mesi.EXCLUSIVE,
                None,
            )
            return self._lat_memory
        if len(holders) == 1:
            (holder,) = holders
            remote_line = self._l2_probe[holder](line_addr)
            if remote_line.spilled:
                # Remote hit on a spilled line, the only on-chip copy.
                traffic.remote_hits += 1
                if recording:
                    stats.l2_remote_hits += 1
                    stats.hits_on_spilled += 1
                ssl_miss = self._ssl_miss
                if ssl_miss is not None:
                    ssl_miss = ssl_miss[core_id]
                    ssl_miss(set_idx)
                    ssl_miss(set_idx)
                elif self._policy_on_access is not None:
                    self._policy_on_access(core_id, set_idx, "remote")
                wants_swap = self._policy_wants_swap
                if wants_swap is None or not wants_swap(core_id, set_idx):
                    # Swap-less schemes serve a spilled line in place: the
                    # receiver promotes it (it proved useful) and forwards
                    # the data; the requester does not re-allocate it, so
                    # every future access keeps costing the remote-hit
                    # latency (Figure 10's persistent remote fraction).
                    self._l2_lookup[holder](line_addr)  # promote to MRU
                    if is_write:
                        remote_line.state = Mesi.MODIFIED
                    if self.sanitizer is not None:
                        self.sanitizer.after_access(holder, line_addr)
                    return self._lat_remote
                # ASCC-family swap (Section 3.2): the requested line
                # migrates home and the local victim — when it is the last
                # copy — takes the slot the migration just freed.  The
                # pair of last copies stays on chip with no receiver-pool
                # arbitration, which is what keeps a cooperatively-held
                # working set resident.
                new_state = (
                    Mesi.MODIFIED
                    if remote_line.state is Mesi.MODIFIED or is_write
                    else Mesi.EXCLUSIVE
                )
                self._invalidate_at(holder, line_addr)
                self._allocate_local(core_id, line_addr, set_idx, new_state, holder)
                return self._lat_remote
        return self._remote_hit(core_id, line_addr, set_idx, is_write, list(holders))

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
        """A remote hit on genuinely shared data: a shared read or a
        remote write.  ``access`` resolves a spilled line's only copy
        itself.
        """
        stats = self.stats[core_id]
        self.traffic.remote_hits += 1
        holder = holders[0] if len(holders) == 1 else self.rng.choice(holders)
        remote_line = self.l2s[holder].probe(line_addr)
        assert remote_line is not None
        if stats.recording:
            stats.l2_remote_hits += 1
            if remote_line.spilled:
                stats.hits_on_spilled += 1
        if self._ssl_miss is not None:
            self._ssl_miss[core_id](set_idx)
            self._ssl_miss[core_id](set_idx)
        elif self._policy_on_access is not None:
            self._policy_on_access(core_id, set_idx, "remote")

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
        return self._lat_remote

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
        """Fill the requester's L2 (disposing of a victim) and its L1.

        The victim goes, in this order of preference: nowhere (another
        on-chip copy survives, and MESI guarantees ours is clean); into
        the slot the migrating line just freed (swap, Section 3.2); to a
        receiver the policy picks (spill); or to memory, written back
        when dirty.
        """
        cache = self.l2s[core_id]
        choose = self._policy_victim_position
        if choose is None:  # plain LRU; None while the set has a free way
            victim = cache.take_victim(set_idx)
        elif cache.occupancy(set_idx) >= self._ways:
            victim = cache.take_victim(set_idx, choose(core_id, set_idx, "demand"))
        else:
            victim = None
        san = self.sanitizer
        if victim is not None:
            # The victim's slot is back in this cache's pool; nothing
            # installs here before the disposal below has read it.
            victim_addr = victim.addr
            # Back-invalidate the L1 (inclusion), in place.
            l1_idx = victim_addr & self._l1_mask
            l1_lines = self._l1_sets[core_id][l1_idx]
            if victim_addr in l1_lines:
                del l1_lines[victim_addr]
                l1_mru = self._l1_mru[core_id]
                if l1_mru[l1_idx] == victim_addr:
                    l1_mru[l1_idx] = -1
                self.l1s[core_id].back_invalidations += 1
            if san is not None:
                san.on_line_removed(core_id, victim)
                san.after_back_invalidate(core_id, victim_addr)
            # Off the directory now, so a last copy has no holders left.
            if victim_addr not in self._holders:
                wants_swap = self._policy_wants_swap
                if (
                    migrated_holder is not None
                    and wants_swap is not None
                    and wants_swap(core_id, set_idx)
                ):
                    self._place_spilled(
                        core_id, migrated_holder, set_idx, victim, swap=True
                    )
                else:
                    policy = self.policy
                    should_spill = self._policy_should_spill
                    receiver = None
                    if (
                        should_spill is not None
                        and (not victim.spilled or policy.respill_spilled)
                        and should_spill(core_id, set_idx)
                    ):
                        receiver = policy.select_receiver(core_id, set_idx)
                    if receiver is not None and receiver != core_id:
                        self._place_spilled(
                            core_id, receiver, set_idx, victim, swap=False
                        )
                    elif victim.state is Mesi.MODIFIED:
                        self._writeback(core_id)
        # After disposal: ASCC's ``select_receiver`` may have just flipped
        # the set into capacity mode.
        insertion = self._policy_insertion_position
        pos = 0 if insertion is None else insertion(core_id, set_idx)
        line = cache.install(line_addr, state, False, False, position=pos)
        # L1 fill, in place.
        l1_idx = line_addr & self._l1_mask
        l1_lines = self._l1_sets[core_id][l1_idx]
        if line_addr not in l1_lines:
            if len(l1_lines) >= self._l1_ways:
                l1_lines.popitem(last=False)
            l1_lines[line_addr] = line
            self._l1_mru[core_id][l1_idx] = line_addr
        if san is not None:
            san.after_access(core_id, line_addr)

    def _place_spilled(
        self, src: int, dst: int, set_idx: int, victim: Line, swap: bool
    ) -> None:
        cache = self.l2s[dst]
        policy = self.policy
        choose = self._policy_victim_position
        if choose is None and not policy.spill_victim_prefers_spilled:
            r_victim = cache.take_victim(set_idx)
        else:
            stack = cache.stack_view(set_idx)
            if len(stack) >= self._ways:
                r_pos = None if choose is None else choose(dst, set_idx, "spill")
                if r_pos is None and policy.spill_victim_prefers_spilled:
                    # ASCC-family receiver rule: recycle the least-recent
                    # line that was itself spilled in, before touching any
                    # of the receiver set's own working set (uses the
                    # per-line spilled bit the spill mechanism carries).
                    pos = len(stack)
                    for line in reversed(stack):
                        pos -= 1
                        if line.spilled:
                            r_pos = pos
                            break
                r_victim = cache.take_victim(set_idx, r_pos)
            else:
                r_victim = None
        if r_victim is not None:
            r_addr = r_victim.addr
            # Back-invalidate the receiver's L1 (inclusion), in place.
            l1_idx = r_addr & self._l1_mask
            l1_lines = self._l1_sets[dst][l1_idx]
            if r_addr in l1_lines:
                del l1_lines[r_addr]
                l1_mru = self._l1_mru[dst]
                if l1_mru[l1_idx] == r_addr:
                    l1_mru[l1_idx] = -1
                self.l1s[dst].back_invalidations += 1
            san = self.sanitizer
            if san is not None:
                san.on_line_removed(dst, r_victim)
                san.after_back_invalidate(dst, r_addr)
            # No cascading spills: a displaced last copy goes to memory.
            if r_addr not in self._holders and r_victim.state is Mesi.MODIFIED:
                self._writeback(dst)
        spill_position = self._policy_spill_position
        cache.install(
            victim.addr,
            victim.state,
            True,  # spilled
            True,  # shared_region
            position=0 if spill_position is None else spill_position(dst, set_idx),
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
            if self._policy_on_spill is not None:
                self._policy_on_spill(src, dst, set_idx)
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
        # Back-invalidate the holder's L1 (inclusion), in place.
        l1_idx = line_addr & self._l1_mask
        l1_lines = self._l1_sets[holder][l1_idx]
        if line_addr in l1_lines:
            del l1_lines[line_addr]
            l1_mru = self._l1_mru[holder]
            if l1_mru[l1_idx] == line_addr:
                l1_mru[l1_idx] = -1
            self.l1s[holder].back_invalidations += 1
        self.traffic.invalidations += 1
        if san is not None:
            san.after_back_invalidate(holder, line_addr)

    def _writeback(self, core_id: int) -> None:
        self.traffic.writebacks += 1
        if self.stats[core_id].recording:
            self.stats[core_id].writebacks += 1

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
            victim = cache.take_victim(set_idx)
            if victim is not None:
                self.l1s[core_id].invalidate(victim.addr)
                if san is not None:
                    san.on_line_removed(core_id, victim)
                    san.after_back_invalidate(core_id, victim.addr)
                if victim.addr not in self._holders and victim.state is Mesi.MODIFIED:
                    self._writeback(core_id)
            # Install near LRU so useless prefetches pollute minimally.
            pos = max(0, self._ways - 2)
            cache.install(target, Mesi.EXCLUSIVE, False, False, position=pos).prefetched = True
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
        victim = self.llc.take_victim(line_addr & self.llc.set_mask)
        if victim is not None:
            for l1 in self.l1s:
                l1.invalidate(victim.addr)
            if victim.state is Mesi.MODIFIED:
                self.traffic.writebacks += 1
                if stats.recording:
                    stats.writebacks += 1
        state = Mesi.MODIFIED if is_write else Mesi.EXCLUSIVE
        line = self.llc.install(line_addr, state, False, False, position=0)
        self.l1s[core_id].allocate(line_addr, line)
        return self._latency + self.config.latencies.memory

    def write_through(self, core_id: int, line_addr: int) -> None:
        line = self.llc.probe(line_addr)
        if line is not None:
            line.state = Mesi.MODIFIED
        if self.stats[core_id].recording:
            self.stats[core_id].wt_writes += 1
