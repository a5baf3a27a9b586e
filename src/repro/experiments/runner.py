"""Experiment runner: (mix x scheme) cells over a shared :class:`Session`.

Every paper figure compares schemes against the private-LRU baseline and
normalises per-application IPCs by stand-alone runs.  An
:class:`ExperimentRunner` is the figures' parameter template: it turns
``(codes, scheme)`` cells into :class:`~repro.api.spec.RunSpec` objects
and hands them to its :class:`~repro.api.session.Session`, whose memo
keeps each mix's baseline and each benchmark's stand-alone run, so a
figure's scheme sweep reuses them.

``scheme`` names come from :mod:`repro.policies.registry`; the special name
``"shared"`` builds the Section 6.1 banked shared LLC instead of private
caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from repro.api.spec import RunSpec
from repro.metrics.latency import LatencyBreakdown, latency_breakdown
from repro.metrics.speedup import (
    harmonic_mean_speedup,
    improvement,
    weighted_speedup,
)
from repro.sim.config import PAPER_L2, PrefetchConfig, ScaleModel
from repro.sim.results import SystemResult


@dataclass
class MixOutcome:
    """A scheme's result on one mix, normalised against the baseline.

    The derived metrics are ``cached_property``s (so the class is not
    frozen): figures read the same improvement several times — table cell,
    geomean, formatting — and each evaluation walks every core's counters.
    The underlying results are never mutated, so caching is safe.
    """

    result: SystemResult
    baseline: SystemResult
    alone_ipcs: tuple[float, ...]

    @cached_property
    def speedup_improvement(self) -> float:
        """Weighted-speedup gain over the baseline (0.078 = +7.8 %)."""
        alone = list(self.alone_ipcs)
        ws = weighted_speedup(self.result, alone)
        ws_base = weighted_speedup(self.baseline, alone)
        return improvement(ws, ws_base)

    @cached_property
    def fairness_improvement(self) -> float:
        """Harmonic-mean-of-IPCs gain over the baseline (Figure 9)."""
        alone = list(self.alone_ipcs)
        hm = harmonic_mean_speedup(self.result, alone)
        hm_base = harmonic_mean_speedup(self.baseline, alone)
        return improvement(hm, hm_base)

    @cached_property
    def latency(self) -> LatencyBreakdown:
        return latency_breakdown(self.result, self.baseline)

    @property
    def aml_improvement(self) -> float:
        """Average-memory-latency reduction over the baseline (Figure 10)."""
        return self.latency.improvement

    @property
    def offchip_reduction(self) -> float:
        """Reduction in off-chip accesses (Table 4's metric)."""
        base = self.baseline.total_offchip_accesses
        if base == 0:
            return 0.0
        return 1.0 - self.result.total_offchip_accesses / base


class ExperimentRunner:
    """A figure's simulation parameters, bound to a :class:`Session`.

    Builds the :class:`RunSpec` for each ``(codes, scheme)`` cell and
    delegates every lookup to ``session`` (a fresh serial
    :class:`~repro.api.session.Session` when none is given); it keeps
    no results of its own.
    """

    def __init__(
        self,
        scale: ScaleModel = ScaleModel(),
        quota: int = 150_000,
        warmup: int = 150_000,
        seed: int = 7,
        l2_paper_bytes: int = PAPER_L2.size_bytes,
        prefetch: Optional[PrefetchConfig] = None,
        session=None,
    ) -> None:
        if session is None:
            from repro.api.session import Session

            session = Session()
        self.scale = scale
        self.quota = quota
        self.warmup = warmup
        self.seed = seed
        self.l2_paper_bytes = l2_paper_bytes
        self.prefetch = prefetch
        self.session = session

    def spec(self, codes: Sequence[int], scheme: str) -> RunSpec:
        """The :class:`RunSpec` this runner simulates for a cell."""
        return RunSpec(
            mix=tuple(codes),
            scheme=scheme,
            quota=self.quota,
            warmup=self.warmup,
            seed=self.seed,
            scale=self.scale,
            l2_paper_bytes=self.l2_paper_bytes,
            prefetch=self.prefetch,
        )

    def run(self, codes: Sequence[int], scheme: str) -> SystemResult:
        """A mix's result under a scheme (memoized by the session)."""
        return self.session.result(self.spec(codes, scheme))

    def outcome(self, codes: Sequence[int], scheme: str) -> MixOutcome:
        """Scheme result with baseline and stand-alone normalisation."""
        return self.session.outcome(self.spec(codes, scheme))

    def alone_ipc(self, code: int) -> float:
        """Stand-alone IPC of a benchmark on the baseline machine."""
        return self.run((code,), "baseline").cores[0].ipc

    def prewarm(self, mixes: Iterable[Sequence[int]], schemes: Iterable[str]):
        """Simulate a (mix x scheme) matrix, baselines included, up front.

        One batch through :meth:`Session.prewarm`; returns its
        :class:`~repro.execution.report.RunReport`.
        """
        schemes = list(schemes)
        return self.session.prewarm(
            [self.spec(mix, scheme) for mix in mixes for scheme in schemes]
        )


def run_mix(spec: RunSpec, runner: Optional[ExperimentRunner] = None) -> MixOutcome:
    """One spec's :class:`MixOutcome`, through ``runner``'s session if given."""
    return (runner or ExperimentRunner()).session.outcome(spec)
