"""Runtime invariant sanitizer for the private-LLC simulator.

:class:`InvariantChecker` attaches to a
:class:`~repro.sim.system.PrivateHierarchy` behind the same
zero-cost-when-off pattern as :mod:`repro.obs`: the hierarchy carries a
``sanitizer`` attribute that defaults to ``None`` at class level, and
every emission site is guarded by ``if san is not None``.  All guards
live on miss/coherence paths — the local-hit fast path is untouched — so
an unsanitized run is bit-identical to the pre-sanitizer simulator and
pays no measurable overhead (certified by the golden-digest suite).

The checker only *reads* simulator state (snapshot ``set_lines``,
``probe``, directory queries) and never touches an RNG, so a sanitized
run produces the same :class:`~repro.sim.results.SystemResult` digest as
a plain run.  Invariants checked:

* **MESI transition legality** — every observed coherence event
  (``write_hit`` upgrades, ``remote_read`` downgrades, ``remote_write``
  invalidations) must appear in
  :data:`repro.coherence.protocol.TRANSITIONS`.
* **L2→L1 inclusion** — after every back-invalidation the owning L1 no
  longer holds the line; the periodic sweep additionally verifies full
  inclusion (every L1-resident address is L2-resident on the same core).
* **Recency-stack integrity** — per set: no duplicate tags, every line
  maps to the set, stack and flat index agree (the stack is a
  permutation of the resident lines), occupancy never exceeds the ways,
  and no resident line is INVALID.
* **SSL counter bounds** — every in-use saturation counter stays in
  ``[0, 2*ways - 1]`` (and its fixed-point raw value in
  ``[0, max_raw]``).
* **Spill conservation** — spills emitted equals spills received:
  ``traffic.spills + traffic.swaps == spill fills observed``, and the
  number of spilled-flagged resident lines equals fills minus removals.
* **Directory sync and M/E exclusivity** — swept periodically and at end
  of run via the hierarchy's existing ``check_invariants``-style walk.

Violations raise :class:`InvariantViolation` carrying the invariant
name, core, set and access/cycle context.

Fault injection (``faults.py`` kind ``"corrupt_state"``) arms a
module-global corruption that the checker itself injects at a
deterministic access ordinal — flipping one resident line to INVALID —
so tests can prove a corrupted run dies with ``InvariantViolation``
instead of silently producing wrong figures.
"""

from __future__ import annotations

import os
from random import Random
from typing import Optional

from repro.coherence.protocol import Mesi, TRANSITIONS

#: Accesses between full-state sweeps (directory sync, inclusion, SSL
#: bounds, conservation).  Per-access checks are local to the touched
#: set/line; the sweep bounds how long a corruption elsewhere can hide.
DEFAULT_SWEEP_INTERVAL = 2048


class InvariantViolation(AssertionError):
    """A simulator invariant failed, with location context.

    Subclasses :class:`AssertionError` so test harnesses treat it as a
    check failure.  Picklable (workers forward it across process
    boundaries via the batch scheduler's error envelope).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        core: Optional[int] = None,
        set_idx: Optional[int] = None,
        addr: Optional[int] = None,
        access: Optional[int] = None,
        cycle: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.core = core
        self.set_idx = set_idx
        self.addr = addr
        self.access = access
        self.cycle = cycle
        where = ", ".join(
            f"{k}={v:#x}" if k == "addr" else f"{k}={v}"
            for k, v in (
                ("core", core),
                ("set", set_idx),
                ("addr", addr),
                ("access", access),
                ("cycle", cycle),
            )
            if v is not None
        )
        super().__init__(f"[{invariant}] {message}" + (f" ({where})" if where else ""))

    def __reduce__(self):
        return (
            _rebuild_violation,
            (
                self.invariant,
                self.args[0],
                self.core,
                self.set_idx,
                self.addr,
                self.access,
                self.cycle,
            ),
        )


def _rebuild_violation(invariant, full_message, core, set_idx, addr, access, cycle):
    violation = InvariantViolation.__new__(InvariantViolation)
    AssertionError.__init__(violation, full_message)
    violation.invariant = invariant
    violation.core = core
    violation.set_idx = set_idx
    violation.addr = addr
    violation.access = access
    violation.cycle = cycle
    return violation


def env_sanitize_enabled(environ=os.environ) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer process-wide."""
    return environ.get("REPRO_SANITIZE", "0").lower() not in ("", "0", "false", "no")


# --------------------------------------------------------------------- #
# Armed corruption (consumed from faults.py's "corrupt_state" kind)
# --------------------------------------------------------------------- #

_ARMED_CORRUPTION_SEED: Optional[int] = None


def arm_state_corruption(seed: int = 0) -> None:
    """Arm a one-shot line-state corruption for the next sanitized run.

    Called by :func:`repro.execution.faults.apply_fault` for the
    ``"corrupt_state"`` kind.  The next :class:`InvariantChecker` to be
    constructed consumes the armed seed and injects the corruption at a
    deterministic access ordinal, proving the sanitizer catches it.
    """
    global _ARMED_CORRUPTION_SEED
    _ARMED_CORRUPTION_SEED = int(seed)


def consume_armed_corruption() -> Optional[int]:
    global _ARMED_CORRUPTION_SEED
    seed = _ARMED_CORRUPTION_SEED
    _ARMED_CORRUPTION_SEED = None
    return seed


def corrupt_line_state(hierarchy, rng: Random) -> Optional[tuple[int, int]]:
    """Flip one resident L2 line to INVALID (a lost invalidation).

    Returns ``(cache_id, line_addr)`` of the corrupted line, or ``None``
    when every L2 is empty.  "Resident implies valid" is one of the
    sanitizer's per-set checks, so this corruption is always detectable.
    """
    populated = [l2 for l2 in hierarchy.l2s if len(l2)]
    if not populated:
        return None
    cache = rng.choice(populated)
    line = rng.choice(list(cache.iter_lines()))
    line.state = Mesi.INVALID
    return (cache.cache_id, line.addr)


# --------------------------------------------------------------------- #
# The checker
# --------------------------------------------------------------------- #


class InvariantChecker:
    """Pluggable runtime sanitizer for :class:`PrivateHierarchy`.

    The hierarchy calls the ``on_*``/``after_*`` hooks from guarded
    emission sites; the checker walks the relevant set/line immediately
    and the whole machine every ``sweep_interval`` accesses and at end
    of run (:meth:`final_check`, called by the engine).
    """

    def __init__(self, hierarchy, sweep_interval: int = DEFAULT_SWEEP_INTERVAL) -> None:
        self.hierarchy = hierarchy
        self.sweep_interval = sweep_interval
        self.accesses = 0
        self.sweeps = 0
        self.checks = 0
        #: Spill conservation ledger: fills via ``_place_spilled`` vs
        #: removals of spilled-flagged lines (evict/invalidate/migrate).
        self.spill_fills = 0
        self.spilled_removed = 0
        self._next_sweep = sweep_interval
        self._engine = None
        seed = consume_armed_corruption()
        if seed is None:
            self._corrupt_at = None
            self._corrupt_rng = None
        else:
            self._corrupt_rng = Random(seed)
            # Early enough to land inside even tiny smoke runs.
            self._corrupt_at = self._corrupt_rng.randint(16, 96)
        self.corrupted: Optional[tuple[int, int]] = None

    # -------------------------------------------------------------- #
    # Context helpers
    # -------------------------------------------------------------- #

    def bind_engine(self, engine) -> None:
        """Let violations report an approximate cycle count."""
        self._engine = engine

    def _cycle(self) -> Optional[int]:
        # The engine's live per-core counts: core objects only see their
        # cycles at observer calls and at the end of the run.
        if self._engine is None:
            return None
        try:
            return int(max(self._engine.live_cycles()))
        except (AttributeError, ValueError):  # pragma: no cover - defensive
            return None

    def _fail(self, invariant: str, message: str, **where) -> None:
        raise InvariantViolation(
            invariant,
            message,
            access=self.accesses,
            cycle=self._cycle(),
            **where,
        )

    # -------------------------------------------------------------- #
    # Hooks (called from guarded sites in sim.system)
    # -------------------------------------------------------------- #

    def after_access(self, core_id: int, line_addr: int) -> None:
        """Post-miss-resolution check: the touched set and line are sane."""
        self.accesses += 1
        if self._corrupt_at is not None and self.accesses >= self._corrupt_at:
            self._corrupt_at = None
            self.corrupted = corrupt_line_state(self.hierarchy, self._corrupt_rng)
        set_idx = line_addr & self.hierarchy.l2s[core_id].set_mask
        self.check_set(core_id, set_idx)
        self.check_line(line_addr)
        if self.accesses >= self._next_sweep:
            self._next_sweep = self.accesses + self.sweep_interval
            self.sweep()

    def on_transition(self, core_id: int, line_addr: int, current: Mesi, event: str) -> None:
        """A coherence event is about to change a line's state."""
        self.checks += 1
        if (current, event) not in TRANSITIONS:
            self._fail(
                "mesi-transition",
                f"illegal transition: {current} on {event!r}",
                core=core_id,
                addr=line_addr,
            )

    def check_transition(self, holder: int, line_addr: int, event: str) -> None:
        """Probe the holder's copy and validate ``event`` against it."""
        line = self.hierarchy.l2s[holder].probe(line_addr)
        if line is None:
            self._fail(
                "mesi-transition",
                f"coherence event {event!r} targets a line the holder does not have",
                core=holder,
                addr=line_addr,
            )
        self.on_transition(holder, line_addr, line.state, event)

    def after_back_invalidate(self, core_id: int, line_addr: int) -> None:
        """The inclusive L2 dropped a line: the L1 must have dropped it too."""
        self.checks += 1
        if self.hierarchy.l1s[core_id].contains(line_addr):
            self._fail(
                "l1-inclusion",
                "L1 still holds a line after L2 back-invalidation",
                core=core_id,
                addr=line_addr,
            )

    def on_line_removed(self, core_id: int, line) -> None:
        """A line left an L2 (evict/invalidate/migrate): feed the ledger."""
        if line.spilled:
            self.spilled_removed += 1

    def on_spill_fill(self, src: int, dst: int, set_idx: int, line_addr: int, swap: bool) -> None:
        """A spill or swap landed in a receiver set: ledger + local check."""
        self.spill_fills += 1
        self.check_set(dst, set_idx)

    def final_check(self) -> None:
        """End-of-run sweep (called by the engine after the main loop)."""
        self.sweep()

    # -------------------------------------------------------------- #
    # Checks
    # -------------------------------------------------------------- #

    def check_set(self, core_id: int, set_idx: int) -> None:
        """Recency-stack integrity of one set, via the backend's own view."""
        self.checks += 1
        cache = self.hierarchy.l2s[core_id]
        integrity = getattr(cache, "check_integrity", None)
        if integrity is not None:
            try:
                integrity(set_idx)
            except AssertionError as exc:
                self._fail("recency-stack", str(exc), core=core_id, set_idx=set_idx)
        for line in cache.set_lines(set_idx):
            if not line.state.is_valid:
                self._fail(
                    "resident-valid",
                    "resident line is in INVALID state",
                    core=core_id,
                    set_idx=set_idx,
                    addr=line.addr,
                )

    def check_line(self, line_addr: int) -> None:
        """Chip-wide coherence of one address: directory sync, exclusivity."""
        self.checks += 1
        h = self.hierarchy
        resident = frozenset(
            l2.cache_id for l2 in h.l2s if l2.probe(line_addr) is not None
        )
        holders = h.directory.holders(line_addr)
        if resident != holders:
            self._fail(
                "directory-sync",
                f"directory says holders={sorted(holders)} but line is "
                f"resident in {sorted(resident)}",
                addr=line_addr,
            )
        exclusive = [
            cache_id
            for cache_id in resident
            if h.l2s[cache_id].probe(line_addr).state
            in (Mesi.MODIFIED, Mesi.EXCLUSIVE)
        ]
        if exclusive and len(resident) != 1:
            self._fail(
                "mesi-exclusivity",
                f"M/E copy in cores {exclusive} coexists with copies in "
                f"{sorted(resident)}",
                addr=line_addr,
            )

    def sweep(self) -> None:
        """Full-machine walk: every set, directory, inclusion, SSL, ledger."""
        self.sweeps += 1
        h = self.hierarchy
        seen: dict[int, set[int]] = {}
        resident_spilled = 0
        for cache in h.l2s:
            for set_idx in range(cache.geometry.sets):
                self.check_set(cache.cache_id, set_idx)
            total = sum(cache.occupancy(s) for s in range(cache.geometry.sets))
            if total != len(cache):
                self._fail(
                    "recency-stack",
                    f"stack occupancy {total} != indexed line count {len(cache)}",
                    core=cache.cache_id,
                )
            for line in cache.iter_lines():
                seen.setdefault(line.addr, set()).add(cache.cache_id)
                if line.spilled:
                    resident_spilled += 1
        for addr in seen:
            self.check_line(addr)
        for core_id, l1 in enumerate(h.l1s):
            l2 = h.l2s[core_id]
            for addr in l1.resident_addrs():
                if not l2.contains(addr):
                    self._fail(
                        "l1-inclusion",
                        "L1-resident line is absent from the inclusive L2",
                        core=core_id,
                        addr=addr,
                    )
        self._check_ssl_bounds()
        self._check_conservation(resident_spilled)

    def _check_ssl_bounds(self) -> None:
        """Every in-use SSL counter within [0, 2*ways - 1] (+ raw bound)."""
        banks = getattr(self.hierarchy.policy, "banks", None)
        if not banks:
            return
        self.checks += 1
        for cache_id, bank in enumerate(banks):
            limit = 2 * bank.ways - 1
            for counter, value in enumerate(bank.values_in_use()):
                if not 0 <= value <= limit:
                    self._fail(
                        "ssl-bounds",
                        f"SSL counter {counter} holds {value}, outside "
                        f"[0, {limit}]",
                        core=cache_id,
                    )
            raw_values = getattr(bank, "_raw", None)
            max_raw = getattr(bank, "_max_raw", None)
            if raw_values is not None and max_raw is not None:
                for counter, raw in enumerate(raw_values[: bank.counters_in_use]):
                    if not 0 <= raw <= max_raw:
                        self._fail(
                            "ssl-bounds",
                            f"SSL raw value {raw} at counter {counter} "
                            f"outside [0, {max_raw}]",
                            core=cache_id,
                        )

    def _check_conservation(self, resident_spilled: int) -> None:
        """Spills emitted == spills received (+ dropped since)."""
        self.checks += 1
        traffic = self.hierarchy.traffic
        emitted = traffic.spills + traffic.swaps
        if emitted != self.spill_fills:
            self._fail(
                "spill-conservation",
                f"traffic counted {emitted} spills+swaps but "
                f"{self.spill_fills} spill fills were observed",
            )
        expected = self.spill_fills - self.spilled_removed
        if resident_spilled != expected:
            self._fail(
                "spill-conservation",
                f"{resident_spilled} spilled lines resident but ledger "
                f"expects {expected} (fills={self.spill_fills}, "
                f"removed={self.spilled_removed})",
            )


def attach_sanitizer(
    hierarchy, sweep_interval: int = DEFAULT_SWEEP_INTERVAL
) -> InvariantChecker:
    """Create an :class:`InvariantChecker` and hook it onto ``hierarchy``."""
    checker = InvariantChecker(hierarchy, sweep_interval)
    hierarchy.sanitizer = checker
    return checker
