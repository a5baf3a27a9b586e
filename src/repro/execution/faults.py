"""Deterministic fault injection for the execution backends.

Long simulation campaigns fail in predictable ways — a worker raises, a
worker hangs, a worker dies hard and takes the process pool with it, a
result comes back mangled.  This module makes every one of those failure
modes *reproducible on demand* so the retry rules of the executors
(:mod:`repro.service.executor`) can be tested deterministically
instead of hoping the flaky case shows up.

A :class:`FaultPlan` maps ``(cell, attempt)`` pairs to :class:`Fault`
descriptions.  The executor resolves the fault *before* submitting a
task and ships it to the worker inside the payload, so the plan itself
never crosses a process boundary and works under any multiprocessing
start method.  Faults fire on specific attempt numbers, which is what
makes retry testing deterministic: a fault armed for attempt 1 crashes
the first try and lets the retry succeed.

Plans come from two constructors:

* explicit — ``FaultPlan({cell: Fault("crash")})`` for precise tests;
* seeded — ``FaultPlan.from_spec("crash=1,hang=1", seed=42)`` picks
  victim cells pseudo-randomly (but reproducibly) once the scheduler
  binds the plan to a concrete cell list.

The hidden ``REPRO_FAULT_PLAN`` environment variable feeds
:func:`fault_plan_from_env` so chaos runs can be driven from the CLI
without a dedicated flag::

    REPRO_FAULT_PLAN="crash=2,hang=1,seed=7" python -m repro.cli \
        experiment fig7 --jobs 4 --cache-dir /tmp/cells --timeout 60
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

#: Fault kinds the worker knows how to apply (see :func:`apply_fault`).
FAULT_KINDS = (
    "crash",
    "hang",
    "die",
    "corrupt",
    "crash_process",
    "corrupt_state",
)

#: Default sleep for ``hang`` faults — long enough to trip any sane
#: per-cell timeout, short enough that an orphaned worker exits soon.
DEFAULT_HANG_SECONDS = 30.0


class InjectedCrash(RuntimeError):
    """Raised by a worker executing a ``crash`` fault."""


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    ``kind``
        ``crash``   — raise :class:`InjectedCrash` (transient failure).
        ``hang``    — sleep ``seconds`` before simulating (trips the
        executor's per-attempt timeout).
        ``die``     — ``os._exit(1)`` the worker (breaks the process
        pool; downgraded to ``crash`` when applied in-process so a
        serial run is never killed).
        ``corrupt`` — return a non-result sentinel instead of the
        simulation output (fails the executor's validation).
        ``crash_process`` — ``SIGKILL`` the worker's own process (the
        hardest death: no Python teardown, breaks the pool; downgraded
        to ``crash`` when applied in-process).
        ``corrupt_state`` — arm a one-shot *simulator state* corruption
        (one resident cache line flipped to INVALID mid-run) consumed by
        the :mod:`repro.verify` sanitizer; a sanitized run must die with
        ``InvariantViolation`` instead of returning silently-wrong
        results.  Without the sanitizer attached the armed corruption is
        never injected, so an unsanitized run completes normally.
    ``attempt``
        The 1-based attempt number the fault fires on.  Any other
        attempt of the same cell runs clean, so a retried cell recovers.
    ``seconds``
        Sleep duration for ``hang``; ignored otherwise.
    """

    kind: str
    attempt: int = 1
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ValueError(f"fault attempt must be >= 1, got {self.attempt}")

    def as_payload(self) -> tuple[str, float]:
        """Primitive form shipped to workers inside the task payload."""
        return (self.kind, self.seconds)


#: Sentinel returned by a ``corrupt`` fault in place of a real result.
CORRUPTED_RESULT = "<<injected-corrupt-result>>"


def apply_fault(fault: tuple[str, float], in_process: bool = False):
    """Execute a fault payload inside a worker.

    Returns :data:`CORRUPTED_RESULT` for ``corrupt`` faults and ``None``
    for ``hang`` (after sleeping) and ``corrupt_state``; raises or
    exits for the rest.  With ``in_process=True`` the hard deaths
    (``die``, ``crash_process``) are downgraded to ``crash`` so an
    injected death can never kill the executing process itself.
    """
    kind, seconds = fault
    if kind == "crash":
        raise InjectedCrash("injected worker crash")
    if kind == "die":
        if in_process:
            raise InjectedCrash("injected worker death (downgraded in-process)")
        os._exit(1)
    if kind == "crash_process":
        if in_process:
            raise InjectedCrash("injected process kill (downgraded in-process)")
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    if kind == "hang":
        time.sleep(seconds)
        return None
    if kind == "corrupt":
        return CORRUPTED_RESULT
    if kind == "corrupt_state":
        from repro.verify.sanitizer import arm_state_corruption

        # ``seconds`` doubles as the corruption seed (an int in every
        # plan constructor); the next sanitized simulation in this
        # process injects and must catch the corruption.
        arm_state_corruption(int(seconds))
        return None
    raise ValueError(f"unknown fault kind {kind!r}")


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    ``faults`` maps a cell — ``((codes...), scheme)`` — to the
    :class:`Fault` injected for it.  A plan built by :meth:`from_spec`
    starts empty and assigns victims when :meth:`bind` is called with
    the concrete cell list (the scheduler does this once, when its
    first busy period begins, with every cell then queued to run).
    """

    faults: dict = field(default_factory=dict)
    spec: Optional[dict] = None
    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS

    @classmethod
    def from_spec(
        cls,
        spec: str | Mapping[str, int],
        seed: int = 0,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
    ) -> "FaultPlan":
        """Build a seeded plan from ``"kind=count,..."`` (or a mapping).

        The string form also accepts ``seed=N`` and ``hang_seconds=X``
        entries, which is what :func:`fault_plan_from_env` relies on.
        """
        counts: dict[str, int] = {}
        if isinstance(spec, str):
            for part in spec.split(","):
                part = part.strip()
                if not part:
                    continue
                key, _, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if not value:
                    raise ValueError(f"bad fault spec entry {part!r}: expected kind=count")
                if key == "seed":
                    seed = int(value)
                elif key == "hang_seconds":
                    hang_seconds = float(value)
                elif key in FAULT_KINDS:
                    counts[key] = counts.get(key, 0) + int(value)
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r} in spec; expected one of {FAULT_KINDS}"
                    )
        else:
            for key, count in spec.items():
                if key not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown fault kind {key!r}; expected one of {FAULT_KINDS}"
                    )
                counts[key] = int(count)
        return cls(spec=counts, seed=seed, hang_seconds=hang_seconds)

    def bind(self, cells: Sequence) -> None:
        """Assign spec'd faults to concrete victim cells, reproducibly.

        Victims are drawn without replacement from the *sorted* cell
        list with a :class:`random.Random` seeded by ``seed``, so the
        same (spec, seed, cell set) always yields the same schedule.
        Explicit ``faults`` entries are preserved; binding is idempotent
        for a given cell set.
        """
        if not self.spec:
            return
        candidates = [c for c in cells if c not in self.faults]
        try:
            pool = sorted(candidates)
        except TypeError:
            # Unorderable cells (the batch service schedules RunSpec
            # objects): fall back to their deterministic repr.
            pool = sorted(candidates, key=repr)
        rng = random.Random(self.seed)
        rng.shuffle(pool)
        assigned = dict(self.faults)
        it = iter(pool)
        for kind in sorted(self.spec):
            for _ in range(self.spec[kind]):
                try:
                    cell = next(it)
                except StopIteration:
                    break  # more faults requested than cells available
                assigned[cell] = Fault(kind, seconds=self.hang_seconds)
        self.faults = assigned
        self.spec = None  # consumed; re-binding with more cells is a no-op

    def fault_for(self, cell, attempt: int) -> Optional[Fault]:
        """The fault to inject for this (cell, attempt), if any."""
        fault = self.faults.get(cell)
        if fault is not None and fault.attempt == attempt:
            return fault
        return None

    def __bool__(self) -> bool:
        return bool(self.faults) or bool(self.spec)


def fault_plan_from_env(environ: Mapping[str, str] = os.environ) -> Optional[FaultPlan]:
    """Parse the hidden ``REPRO_FAULT_PLAN`` chaos knob, if set."""
    text = environ.get("REPRO_FAULT_PLAN")
    if not text:
        return None
    return FaultPlan.from_spec(text)
