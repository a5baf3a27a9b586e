"""``repro.api`` — the stable public surface of the simulation stack.

Two ideas:

* :class:`RunSpec` — a frozen, validated, content-addressed description
  of one simulation (mix, scheme, quota, warmup, seed, scale, ...).
  Build one, reuse it everywhere: sessions, the batch service, the CLI
  and the cache all speak RunSpec.
* :class:`Session` — the façade that answers specs: single results,
  normalised outcomes, prewarmed batches, telemetry and traces, with
  the orchestration knobs (workers, disk cache, timeouts) given once.
* The service tier — :func:`run_batch`, :class:`BatchScheduler`,
  :class:`ExecutorConfig` and the request-path :class:`SpanTracer` —
  re-exported here so "the supported way to run batches" is one import
  away from the spec that describes them.

API stability: ``__all__`` below *is* the contract — anything
importable from submodules but not listed here is private by policy.
Additive changes land freely; breaking changes only with a major bump
and a deprecation cycle (see DESIGN.md §11).
"""

from repro._lazy import exports

# Re-exported lazily: the session module imports the experiment runner,
# which imports ``repro.api.spec``, and the service tier imports the
# spec module too, so eager imports here would be circular (and would
# make ``import repro.api`` heavy for spec-only callers).
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.api.spec": (
            "CACHE_FORMAT_VERSION",
            "RunSpec",
            "SpecError",
            "parse_mix",
            "spec_grid",
        ),
        "repro.api.session": ("Session", "result_digest", "result_summary"),
        "repro.service": ("BatchScheduler", "ExecutorConfig", "run_batch"),
        "repro.obs.spans": ("SpanTracer",),
    },
)
