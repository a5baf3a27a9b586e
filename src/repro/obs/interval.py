"""Interval telemetry: per-core time-series sampled by the engine.

The paper's mechanisms are *dynamic* — SSL counters saturate and decay,
sets flip between spiller and receiver, AVGCC re-grains — but the
simulator's end-of-run :class:`~repro.sim.results.CoreStats` totals
average all of that away.  :class:`IntervalRecorder` restores the time
axis: every ``interval`` committed instructions (per core, while that
core's statistics are live) it snapshots the core's counters, derives
the interval's MPKI / CPI / spill rates from the deltas, and — for
SSL-based policies — captures the set-saturation state: the granularity
``D``, a role histogram (receiver / neutral / spiller, in sets), the
number of groups in capacity mode, and the raw per-counter SSL values.

Samples are cheap (a tuple diff plus one pass over the in-use counters)
and only taken at interval boundaries, so even second-by-second cadences
cost well under a percent of runtime; the disabled path costs nothing at
all (see :mod:`repro.obs.observer`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.observer import Observer

#: Default sampling cadence in committed instructions.
DEFAULT_INTERVAL = 10_000

#: Per-core counters (``hierarchy.counts``) diffed per interval, in
#: snapshot order; the names are CoreStats fields.
_COUNTER_FIELDS = (
    "l2_accesses",
    "l2_local_hits",
    "l2_remote_hits",
    "l2_memory_fetches",
    "spills_out",
    "spills_in",
    "swaps",
)


@dataclass(frozen=True, slots=True)
class IntervalSample:
    """One core's dynamics over one sampling interval."""

    core_id: int
    index: int  #: 0-based sample number for this core
    instructions: int  #: cumulative committed instructions (warmup included)
    cycles: float  #: cumulative cycles
    d_instructions: int
    d_cycles: float
    #: Raw counter deltas over the interval, keyed by CoreStats field.
    deltas: dict = field(default_factory=dict)
    #: SSL state at the sample point (``None`` for non-SSL policies).
    ssl: Optional[dict] = None

    # -- derived rates -------------------------------------------------- #

    @property
    def cpi(self) -> float:
        return self.d_cycles / self.d_instructions if self.d_instructions else 0.0

    @property
    def mpki(self) -> float:
        """Local-L2 misses per kilo-instruction over this interval."""
        if not self.d_instructions:
            return 0.0
        misses = self.deltas["l2_remote_hits"] + self.deltas["l2_memory_fetches"]
        return 1000.0 * misses / self.d_instructions

    @property
    def offchip_mpki(self) -> float:
        if not self.d_instructions:
            return 0.0
        return 1000.0 * self.deltas["l2_memory_fetches"] / self.d_instructions

    @property
    def spill_out_pki(self) -> float:
        if not self.d_instructions:
            return 0.0
        return 1000.0 * self.deltas["spills_out"] / self.d_instructions

    @property
    def spill_in_pki(self) -> float:
        if not self.d_instructions:
            return 0.0
        return 1000.0 * self.deltas["spills_in"] / self.d_instructions

    def to_dict(self) -> dict:
        return {
            "core": self.core_id,
            "index": self.index,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "d_instructions": self.d_instructions,
            "d_cycles": self.d_cycles,
            "cpi": self.cpi,
            "mpki": self.mpki,
            "offchip_mpki": self.offchip_mpki,
            "spill_out_pki": self.spill_out_pki,
            "spill_in_pki": self.spill_in_pki,
            "deltas": dict(self.deltas),
            "ssl": self.ssl,
        }


class IntervalRecorder(Observer):
    """Observer collecting :class:`IntervalSample` time-series.

    Parameters
    ----------
    interval:
        Committed instructions between samples (per core).
    snapshot_sets:
        Also record the raw per-counter SSL values at every sample
        (``ssl["values"]``).  The role histogram is always recorded.
    """

    def __init__(
        self, interval: int = DEFAULT_INTERVAL, snapshot_sets: bool = True
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = int(interval)
        self.snapshot_sets = snapshot_sets
        self.samples: list[IntervalSample] = []
        self._hierarchy = None
        self._core_names: dict[int, str] = {}
        #: core_id -> (instructions, cycles, counter tuple) at last sample.
        self._prev: dict[int, tuple[int, float, tuple[int, ...]]] = {}
        self._index: dict[int, int] = {}

    # -- Observer hooks ------------------------------------------------- #

    def bind(self, hierarchy, workloads) -> None:
        self._hierarchy = hierarchy
        self._core_names = {i: w.name for i, w in enumerate(workloads)}
        # The hierarchy's counters start at zero with the run, so the zero
        # baseline is exact for warmup-free runs; ``on_phase("measure")``
        # re-bases for runs with a warmup phase.
        for core_id in range(len(hierarchy.l1s)):
            self._prev[core_id] = (0, 0.0, (0,) * len(_COUNTER_FIELDS))
            self._index[core_id] = 0

    def on_phase(self, core_id: int, phase: str, instructions: int, cycles: float) -> None:
        if phase == "measure":
            # Re-base counters and the engine's cumulative instruction and
            # cycle counts, so the first interval absorbs none of the warmup.
            self._prev[core_id] = (instructions, cycles, self._counters(core_id))
        elif phase == "done":
            prev_instructions = self._prev[core_id][0]
            if instructions > prev_instructions:
                # Flush the tail interval (quota is rarely an exact
                # multiple of the sampling interval).
                self.on_sample(core_id, instructions, cycles)

    def on_sample(self, core_id: int, instructions: int, cycles: float) -> None:
        prev_instructions, prev_cycles, prev_counters = self._prev[core_id]
        counters = self._counters(core_id)
        deltas = {
            name: now - before
            for name, now, before in zip(_COUNTER_FIELDS, counters, prev_counters)
        }
        self.samples.append(
            IntervalSample(
                core_id=core_id,
                index=self._index[core_id],
                instructions=instructions,
                cycles=cycles,
                d_instructions=instructions - prev_instructions,
                d_cycles=cycles - prev_cycles,
                deltas=deltas,
                ssl=self._ssl_snapshot(core_id),
            )
        )
        self._index[core_id] += 1
        self._prev[core_id] = (instructions, cycles, counters)

    # -- snapshots ------------------------------------------------------ #

    def _counters(self, core_id: int) -> tuple[int, ...]:
        counts = self._hierarchy.counts[core_id]
        return tuple(getattr(counts, name) for name in _COUNTER_FIELDS)

    def _ssl_snapshot(self, core_id: int) -> Optional[dict]:
        """SSL/role state of the core's cache, via public policy APIs."""
        policy = getattr(self._hierarchy, "policy", None)
        if policy is None or policy.geometry is None:
            return None
        banks = getattr(policy, "banks", None)
        roles = {"receiver": 0, "neutral": 0, "spiller": 0}
        if not banks:
            # Non-SSL policies (baseline, CC, DSR, ECC): sample the role
            # of every set directly; there is no counter state to report.
            for set_idx in range(policy.geometry.sets):
                roles[policy.role(core_id, set_idx).value] += 1
            return {"granularity_log2": None, "roles": roles, "values": None}
        bank = banks[core_id]
        d = bank.granularity_log2
        group = 1 << d
        values = bank.values_in_use()
        capacity_groups = 0
        for ctr in range(bank.counters_in_use):
            # One probe per counter group: every set in the group shares
            # its counter, so the group's role is the probed set's role.
            roles[policy.role(core_id, ctr << d).value] += group
            if bank.capacity_mode_of_counter(ctr):
                capacity_groups += 1
        saturated = sum(1 for v in values if v >= 2 * bank.ways - 1)
        return {
            "granularity_log2": d,
            "counters": len(values),
            "roles": roles,
            "capacity_mode_sets": capacity_groups * group,
            "saturated_counters": saturated,
            "values": list(values) if self.snapshot_sets else None,
        }

    # -- reading / export ----------------------------------------------- #

    def core_name(self, core_id: int) -> str:
        """Workload name of the core (or ``coreN`` before ``bind``)."""
        return self._core_names.get(core_id, f"core{core_id}")

    def by_core(self) -> dict[int, list[IntervalSample]]:
        series: dict[int, list[IntervalSample]] = {}
        for sample in self.samples:
            series.setdefault(sample.core_id, []).append(sample)
        return series

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "cores": {str(i): name for i, name in self._core_names.items()},
            "samples": [sample.to_dict() for sample in self.samples],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
