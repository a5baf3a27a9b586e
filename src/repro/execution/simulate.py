"""The one simulation entry point: :func:`simulate_spec`.

Every path that simulates a cell ends here — the batch service's
workers (local pool and cluster), the figure sweeps through
:class:`~repro.api.session.Session`, and the observability and
verification commands that tap a run with an observer.
"""

from __future__ import annotations

from repro.api.spec import SHARED_SCHEME, RunSpec
from repro.policies.registry import make_policy
from repro.sim.config import ScaleModel, default_config
from repro.sim.engine import Engine
from repro.sim.results import SystemResult
from repro.sim.system import PrivateHierarchy, SharedHierarchy
from repro.workloads.mixes import make_workloads, mix_name
from repro.workloads.trace_cache import env_enabled, get_trace_cache


def simulate_spec(spec: RunSpec, observer=None) -> SystemResult:
    """Simulate one :class:`~repro.api.spec.RunSpec` cell.

    The single entry point behind the batch service workers (and so
    every :class:`~repro.api.session.Session`) and the observability
    CLI (``repro stats`` / ``repro trace``): with ``observer=None`` the
    run is bit-identical to a batch-executed cell; passing an
    :class:`~repro.obs.observer.Observer` taps the same simulation for
    interval telemetry or event traces without perturbing it.
    """
    params = spec.runner_params()
    scale: ScaleModel = params["scale"]
    codes = spec.mix
    workloads = make_workloads(codes, scale)
    use_traces = spec.trace_cache if spec.trace_cache is not None else env_enabled()
    if use_traces:
        # Replace each benchmark's generator with a replay of its
        # materialized record buffer (generated once per process, shared
        # across schemes/sizes/repeats).  Bit-identical by construction;
        # workloads without a trace signature fall through untouched.
        workloads = get_trace_cache().wrap_workloads(
            workloads, spec.seed, spec.quota, spec.warmup
        )
    config = default_config(
        num_cores=len(codes),
        scale=scale,
        quota=spec.quota,
        seed=spec.seed,
        l2_paper_bytes=spec.l2_paper_bytes,
        prefetch=params["prefetch"],
    )
    if spec.scheme == SHARED_SCHEME:
        hierarchy: PrivateHierarchy | SharedHierarchy = SharedHierarchy(config)
    else:
        hierarchy = PrivateHierarchy(config, make_policy(spec.scheme))
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
        workload=mix_name(codes),
        cores=hierarchy.stats,
        traffic=hierarchy.traffic,
        latencies=config.latencies,
    )
