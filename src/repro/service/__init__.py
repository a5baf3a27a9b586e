"""``repro.service`` — batch simulation service over pluggable executors.

:class:`BatchScheduler` accepts :class:`~repro.api.spec.RunSpec`
submissions, deduplicates them against the content-addressed result
cache (including in-flight dedup), prioritizes, fans out through the
execution backend, and resolves a future per submission.  The
:mod:`~repro.service.serve` front-ends expose the scheduler over JSONL
stdio and a loopback HTTP batch endpoint (``repro serve``).

The :mod:`~repro.service.durability` layer makes the service survive the
serving process dying mid-batch: a write-ahead :class:`BatchJournal` plus
:meth:`BatchScheduler.recover` for crash-safe resumption.  A worker hung
mid-cell is caught by the executors themselves: the scheduler's
``timeout`` charges any attempt in flight past it, at every ``jobs``,
and the cluster coordinator expels a lane whose heartbeats stop.  There
is no admission control: a
submission is either rejected as invalid or accepted and run.

Execution itself is pluggable: the :class:`Executor` protocol
(:mod:`~repro.service.executor`) lets the scheduler drive either the
local process pool (:class:`LocalPoolExecutor`) or a multi-node worker fleet
(:class:`repro.cluster.ClusterExecutor`), selected with
``BatchScheduler(executor="local"|"cluster")``.  All front-ends — JSONL
stdio, HTTP, and the cluster TCP protocol — share the versioned message
schema and error taxonomy in :mod:`~repro.service.wire`.
"""

from repro._lazy import exports

# Re-exported lazily: a cluster lane reads the wire module alone, and
# the HTTP/JSONL front-ends (``http.server``) load only when served.
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.execution.report": ("ExecutorError",),
        "repro.service.executor": (
            "Executor",
            "ExecutorConfig",
            "ExecutorStats",
            "LocalPoolExecutor",
            "make_executor",
        ),
        "repro.service.durability": (
            "BatchJournal",
            "JournalError",
            "JournalReplay",
            "replay_journal",
        ),
        "repro.service.scheduler": (
            "BatchScheduler",
            "JobFailed",
            "SchedulerClosed",
            "ServiceStats",
            "run_batch",
        ),
        "repro.service.serve": ("BatchHTTPServer", "serve_http", "serve_jsonl"),
        "repro.service.wire": (
            "PROTOCOL_VERSION",
            "Request",
            "ServiceError",
            "WireError",
            "classify_error",
            "error_record",
            "parse_request",
            "result_record",
        ),
    },
)
