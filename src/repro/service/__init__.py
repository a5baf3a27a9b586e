"""``repro.service`` — batch simulation service over pluggable executors.

:class:`BatchScheduler` accepts :class:`~repro.api.spec.RunSpec`
submissions, deduplicates them against the content-addressed result
cache (including in-flight dedup), prioritizes, fans out through the
execution backend, and resolves a future per submission.  The
:mod:`~repro.service.serve` front-ends expose the scheduler over JSONL
stdio and a loopback HTTP batch endpoint (``repro serve``).

The :mod:`~repro.service.durability` layer makes the service survive its
production failure modes: a write-ahead :class:`BatchJournal` plus
:meth:`BatchScheduler.recover` for crash-safe resumption, an
:class:`AdmissionController` that sheds overload with a retry hint.  A worker hung mid-cell is caught by the executors
themselves: ``hang_grace`` charges any attempt in flight past it.

Execution itself is pluggable: the :class:`Executor` protocol
(:mod:`~repro.service.executor`) lets the scheduler drive either the
local process pool (:class:`LocalPoolExecutor`) or a multi-node worker fleet
(:class:`repro.cluster.ClusterExecutor`), selected with
``BatchScheduler(executor="local"|"cluster")``.  All front-ends — JSONL
stdio, HTTP, and the cluster TCP protocol — share the versioned message
schema and error taxonomy in :mod:`~repro.service.wire`.
"""

from repro.execution.report import ExecutorError
from repro.service.executor import (
    Executor,
    ExecutorConfig,
    ExecutorStats,
    LocalPoolExecutor,
    make_executor,
)
from repro.service.durability import (
    AdmissionController,
    AdmissionRejected,
    BatchJournal,
    JournalError,
    JournalReplay,
    replay_journal,
)
from repro.service.scheduler import (
    BatchScheduler,
    JobFailed,
    SchedulerClosed,
    ServiceStats,
    run_batch,
)
from repro.service.wire import (
    PROTOCOL_VERSION,
    Request,
    ServiceError,
    WireError,
    classify_error,
    error_record,
    parse_request,
    result_record,
)

#: The HTTP/JSONL front-ends pull in ``http.server``; resolve them on
#: first use so importing the scheduler (every
#: :class:`~repro.api.session.Session` miss does) stays light.
_FRONT_ENDS = {
    "BatchHTTPServer": "repro.service.serve",
    "serve_http": "repro.service.serve",
    "serve_jsonl": "repro.service.serve",
}


def __getattr__(name: str):
    module = _FRONT_ENDS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BatchHTTPServer",
    "BatchJournal",
    "BatchScheduler",
    "Executor",
    "ExecutorConfig",
    "ExecutorError",
    "ExecutorStats",
    "JobFailed",
    "JournalError",
    "JournalReplay",
    "LocalPoolExecutor",
    "PROTOCOL_VERSION",
    "Request",
    "SchedulerClosed",
    "ServiceError",
    "ServiceStats",
    "WireError",
    "classify_error",
    "error_record",
    "make_executor",
    "parse_request",
    "replay_journal",
    "result_record",
    "run_batch",
    "serve_http",
    "serve_jsonl",
]
