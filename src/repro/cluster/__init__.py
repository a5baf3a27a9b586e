"""Coordinator/worker execution tier for multi-node batch simulation.

One ``repro batch``/``repro serve`` front-end fans cells out to worker
processes on other hosts over the length-prefixed JSONL TCP protocol
defined in :mod:`repro.service.wire`:

* :class:`ClusterExecutor` (:mod:`repro.cluster.coordinator`) — the
  scheduler-side backend: listens for workers, hands out leases,
  tracks heartbeats, re-dispatches leases lost to worker death or
  hang, and streams results back into the scheduler's dedup / journal
  / metrics pipeline through the same callbacks the local pool uses.
* :class:`WorkerClient` (:mod:`repro.cluster.worker`) — the remote
  side: supervises K *lanes*, forked processes that each connect,
  handshake capabilities, run one lease at a time in-process through
  the worker entry point an untimed ``--jobs 1`` uses
  (:func:`repro.execution.simulate._run_spec`) and stream results
  home.  ``repro worker --connect HOST:PORT --slots K`` is its CLI
  entrypoint.

Simulations are deterministic functions of their spec, so *where* a
cell runs never changes what it computes: a cluster batch's digest
multiset equals a pure-local run's, worker deaths included.
"""

from repro._lazy import exports

# Re-exported lazily: a worker process never loads the coordinator.
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.cluster.coordinator": ("ClusterExecutor",),
        "repro.cluster.worker": ("WorkerClient", "WorkerRejected", "run_worker"),
    },
)
