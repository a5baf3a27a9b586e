"""The one simulation entry point: :func:`simulate_spec`.

Every path that simulates a cell ends here — the batch service's
workers (local pool and cluster), the figure sweeps through
:class:`~repro.api.session.Session`, and the observability and
verification commands that tap a run with an observer.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.spec import FULL_ASSOC, SHARED_SCHEME, RunSpec
from repro.policies.private_lru import PrivateLRU
from repro.policies.registry import make_policy
from repro.sim.config import ScaleModel, default_config
from repro.sim.engine import Engine
from repro.sim.results import SystemResult
from repro.sim.system import PrivateHierarchy, SharedHierarchy
from repro.workloads.mixes import make_workloads, mix_name
from repro.workloads.trace_cache import env_enabled, get_trace_cache


class SetStatsProbe(PrivateLRU):
    """Baseline policy that additionally records per-set miss counts: the
    policy of ``l2_ways`` cells only, so no other cell pays its hook."""

    name = "baseline+probe"

    def _setup(self) -> None:
        assert self.geometry is not None
        self.set_accesses = [0] * self.geometry.sets
        self.set_misses = [0] * self.geometry.sets

    def on_access(self, cache_id: int, set_idx: int, outcome: str) -> None:
        self.set_accesses[set_idx] += 1
        if outcome != "local":
            self.set_misses[set_idx] += 1


def simulate_spec(spec: RunSpec, observer=None, cache_dir=None) -> SystemResult:
    """Simulate one :class:`~repro.api.spec.RunSpec` cell.

    The single entry point behind the batch service workers (and so
    every :class:`~repro.api.session.Session`) and the observability
    CLI (``repro stats`` / ``repro trace``): with ``observer=None`` the
    run is bit-identical to a batch-executed cell; passing an
    :class:`~repro.obs.observer.Observer` taps the same simulation for
    interval telemetry or event traces without perturbing it.

    An ``l2_ways`` cell runs on the way-restricted sweep cache and its
    result carries per-set miss counts (``SystemResult.set_misses``).
    With ``cache_dir`` set, trace buffers missing from the memo are read
    from ``<cache_dir>/_traces/``.
    """
    params = spec.runner_params()
    scale: ScaleModel = params["scale"]
    # One engine workload per core: the kernel's threads, or one
    # benchmark of the mix per core.
    if spec.kernel is not None:
        # Imported here so mix-only processes never load the kernel
        # models (it shows in their peak RSS).
        from repro.workloads.multithread import make_threads

        workloads = make_threads(*spec.kernel, scale)
    else:
        workloads = make_workloads(spec.mix, scale)
    use_traces = spec.trace_cache if spec.trace_cache is not None else env_enabled()
    if use_traces:
        # Replace each benchmark's generator with a replay of its
        # materialized record buffer (memo, then disk, then generated;
        # shared across schemes/sizes/run lengths/repeats).  Bit-identical
        # by construction; workloads that keep the generator path fall
        # through untouched.
        workloads = get_trace_cache().materialize_for_run(
            workloads, spec.seed, spec.quota, spec.warmup, cache_dir
        )
    config = default_config(
        num_cores=len(workloads),
        scale=scale,
        quota=spec.quota,
        seed=spec.seed,
        l2_paper_bytes=spec.l2_paper_bytes,
        prefetch=params["prefetch"],
    )
    probe = None
    if spec.l2_ways is not None:
        sweep = scale.sweep_l2()
        full = spec.l2_ways == FULL_ASSOC
        geometry = sweep.fully_associative() if full else sweep.with_ways(spec.l2_ways)
        config = replace(config, l2_geometry=geometry)
        probe = SetStatsProbe()
    if spec.scheme == SHARED_SCHEME:
        hierarchy: PrivateHierarchy | SharedHierarchy = SharedHierarchy(config)
    else:
        policy = probe if probe is not None else make_policy(spec.scheme)
        hierarchy = PrivateHierarchy(config, policy)
        sanitize = spec.sanitize
        if sanitize is None:
            from repro.verify.sanitizer import env_sanitize_enabled

            sanitize = env_sanitize_enabled()
        if sanitize:
            # Read-only invariant checking: the sanitized run stays
            # bit-identical to a plain run (see repro.verify.sanitizer).
            from repro.verify.sanitizer import attach_sanitizer

            attach_sanitizer(hierarchy)
    engine = Engine(
        hierarchy,
        workloads,
        config.quota,
        config.seed,
        spec.warmup,
        observer=observer,
    )
    engine.run()
    return SystemResult(
        scheme=spec.scheme,
        workload=spec.kernel[0] if spec.kernel is not None else mix_name(spec.mix),
        cores=hierarchy.stats,
        traffic=hierarchy.traffic,
        latencies=config.latencies,
        set_misses=None if probe is None else tuple(probe.set_misses),
    )
