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

from repro.api.spec import (
    CACHE_FORMAT_VERSION,
    RunSpec,
    SpecError,
    parse_mix,
    spec_grid,
)

#: The session module imports the experiment runner module, which itself
#: imports ``repro.api.spec``: importing it eagerly here would be
#: circular.  Resolve the session-side names lazily.
_SESSION_EXPORTS = ("Session", "result_digest", "result_summary")

#: The service tier imports ``repro.api.spec`` itself, so these resolve
#: lazily for the same circularity reason (and to keep ``import
#: repro.api`` light for spec-only callers).
_SERVICE_EXPORTS = ("BatchScheduler", "ExecutorConfig", "run_batch")


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.api import session

        return getattr(session, name)
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    if name == "SpanTracer":
        from repro.obs.spans import SpanTracer

        return SpanTracer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchScheduler",
    "CACHE_FORMAT_VERSION",
    "ExecutorConfig",
    "RunSpec",
    "Session",
    "SpanTracer",
    "SpecError",
    "parse_mix",
    "result_digest",
    "result_summary",
    "run_batch",
    "spec_grid",
]
