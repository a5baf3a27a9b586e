""":class:`Session` — the one façade over the simulation stack.

A session owns the orchestration knobs (worker processes, disk cache,
timeouts, retries, reporting) once, then answers any
:class:`~repro.api.spec.RunSpec`:

* ``result(spec)`` / ``outcome(spec)`` — one cell (plus, for an
  outcome, its mix's baseline and each member's stand-alone run);
* ``prewarm(specs)`` / ``run_many(specs)`` — a whole batch at once,
  baselines and stand-alone runs included;
* ``stats(spec)`` / ``trace(spec)`` — the same simulation with interval
  telemetry or event tracing attached (bit-identical by the observer
  contract).

Every answer comes from one ``{RunSpec: SystemResult}`` memo.  A miss
is filled by one :func:`repro.service.scheduler.run_batch` call — the
single execution path shared with the batch service and the cluster —
so fan-out, the disk-cache and trace pre-passes, retries and the
run report are the scheduler's.  Specs with different parameters
(quota, scale, L2 size, prefetcher...) share one session freely: the
canonical :meth:`RunSpec.cache_key` keys both the memo and the disk
cache.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

from repro.api.spec import RunSpec
from repro.execution.simulate import simulate_spec
from repro.experiments.runner import MixOutcome
from repro.sim.results import SystemResult


def result_digest(result: SystemResult) -> str:
    """SHA-256 over every counter a behaviour change could disturb.

    The same formula as the golden-digest regression tests: two results
    digest equal iff every per-core counter (including float cycle
    counts) and the bus traffic are bit-equal.
    """
    import hashlib
    from dataclasses import astuple

    snapshot = (
        result.scheme,
        result.workload,
        [astuple(stats) for stats in result.cores],
        astuple(result.traffic),
    )
    return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()


def result_summary(result: SystemResult) -> dict:
    """JSON-ready headline view of a :class:`SystemResult`.

    What the batch CLI and the service protocol return per spec: the
    identifying digest plus the metrics a consumer usually wants without
    unpickling the full result.
    """
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "digest": result_digest(result),
        "spills": result.total_spills,
        "offchip_accesses": result.total_offchip_accesses,
        "cores": [
            {
                "core": stats.core_id,
                "ipc": stats.ipc,
                "cpi": stats.cpi,
                "mpki": stats.mpki,
                "offchip_mpki": stats.offchip_mpki,
            }
            for stats in result.cores
        ],
    }


class Session:
    """Answers :class:`RunSpec` requests from one memo over ``run_batch``.

    ``jobs``/``cache_dir``/``timeout``/``retries``/``report_path``/
    ``metrics_path`` mirror the CLI orchestration flags and are passed
    to every :func:`~repro.service.scheduler.run_batch` call the
    session makes.  Nothing from :mod:`repro.service` is imported until
    the first miss.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        report_path: str | os.PathLike | None = None,
        metrics_path: str | os.PathLike | None = None,
    ) -> None:
        self._knobs = dict(
            jobs=jobs,
            cache_dir=cache_dir,
            timeout=timeout,
            retries=retries,
            report_path=report_path,
            metrics_path=metrics_path,
        )
        self._results: dict[RunSpec, SystemResult] = {}

    # ------------------------------------------------------------------ #
    # Single cells
    # ------------------------------------------------------------------ #

    def result(self, spec: RunSpec) -> SystemResult:
        """Simulate (or fetch) one spec's raw :class:`SystemResult`."""
        spec.validate()
        if spec not in self._results:
            self._run([spec])
        return self._results[spec]

    def outcome(self, spec: RunSpec) -> MixOutcome:
        """One spec's result normalised against baseline/stand-alone runs."""
        spec.validate()
        cells = _outcome_cells(spec)
        if any(cell not in self._results for cell in cells):
            self._run(cells)
        result, baseline, *alone = (self._results[cell] for cell in cells)
        return MixOutcome(
            result=result,
            baseline=baseline,
            alone_ipcs=tuple(run.cores[0].ipc for run in alone),
        )

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #

    def prewarm(self, specs: Iterable[RunSpec]):
        """Bulk-simulate a batch of specs plus their baselines.

        Every spec's outcome cells (the spec, its mix's baseline and
        each member's stand-alone run) not yet in the memo go through
        one ``run_batch`` call, whose
        :class:`~repro.execution.report.RunReport` is returned
        (and written to ``report_path``/``metrics_path``).  Raises
        :class:`~repro.execution.report.ExecutorError` naming
        the specs that exhausted their retries; every other cell stays
        in the memo and the disk cache.
        """
        cells = [cell for spec in specs for cell in _outcome_cells(spec.validate())]
        return self._run(cells)

    def run_many(
        self, specs: Iterable[RunSpec]
    ) -> Iterator[tuple[RunSpec, SystemResult]]:
        """Prewarm a batch, then yield each ``(spec, result)`` in order."""
        specs = list(specs)
        self.prewarm(specs)
        for spec in specs:
            yield spec, self.result(spec)

    def _run(self, specs: list[RunSpec]):
        """Fill the memo's misses among ``specs`` with one ``run_batch``."""
        from repro.service.scheduler import run_batch

        missing = [spec for spec in dict.fromkeys(specs) if spec not in self._results]
        outcomes, _stats, report = run_batch(missing, journal=False, **self._knobs)
        failed = {}
        for spec, outcome in zip(missing, outcomes):
            if isinstance(outcome, BaseException):
                failed[spec] = getattr(outcome, "kind", repr(outcome))
            else:
                self._results[spec] = outcome
        if failed:
            from repro.execution.report import ExecutorError

            raise ExecutorError(failed, report)
        return report

    # ------------------------------------------------------------------ #
    # Observed runs
    # ------------------------------------------------------------------ #

    def stats(self, spec: RunSpec, interval: int = 10_000):
        """Simulate ``spec`` with interval telemetry; return the recorder."""
        from repro.obs import IntervalRecorder

        spec.validate()
        recorder = IntervalRecorder(interval=interval)
        simulate_spec(spec, observer=recorder)
        return recorder

    def trace(self, spec: RunSpec, capacity: int = 65_536):
        """Simulate ``spec`` with event tracing; return the tracer.

        The spec's ``events`` field selects the kinds kept (``None`` =
        all) — the one consumer of that field.
        """
        from repro.obs import EventTracer

        spec.validate()
        tracer = EventTracer(capacity=capacity, kinds=spec.events)
        simulate_spec(spec, observer=tracer)
        return tracer


def _outcome_cells(spec: RunSpec) -> list[RunSpec]:
    """``[spec, mix baseline, stand-alone baseline per member]``."""
    return [
        spec,
        spec.replace(scheme="baseline"),
        *(spec.replace(mix=(code,), scheme="baseline") for code in spec.mix),
    ]
