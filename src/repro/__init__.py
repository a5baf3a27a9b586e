"""repro - Adaptive Set-Granular Cooperative Caching (HPCA 2012).

A full Python reproduction of ASCC/AVGCC (Rolan, Fraguela & Doallo):
a trace-driven multi-core cache-hierarchy simulator, the paper's policies
(ASCC, AVGCC, QoS-AVGCC and every intermediate design), the compared prior
schemes (CC, DSR, DSR+DIP, ECC, shared LLC), calibrated synthetic SPEC
CPU2006 workload models, evaluation metrics, a storage-cost model and a
benchmark harness regenerating every table and figure.

Quick start::

    from repro import RunSpec, run_mix

    outcome = run_mix(RunSpec(mix=(471, 444), scheme="avgcc"))
    print(outcome.speedup_improvement)

:class:`RunSpec` is the canonical request object (see ``repro.api``);
:class:`Session` answers specs with shared orchestration knobs, and
``repro.service`` schedules whole batches asynchronously.  See
``examples/quickstart.py`` for the longer tour.
"""

from repro._lazy import exports

__version__ = "6.0.0"

# Re-exported lazily: ``import repro`` loads none of the layers below,
# so each process pays only for the ones it runs.
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.api.session": ("Session",),
        "repro.api.spec": ("RunSpec", "SpecError", "spec_grid"),
        "repro.experiments.runner": ("ExperimentRunner", "MixOutcome", "run_mix"),
        "repro.policies.registry": ("available_schemes", "make_policy"),
        "repro.sim.config": ("ScaleModel", "SystemConfig", "default_config"),
        "repro.sim.engine": ("Engine",),
        "repro.sim.results": ("SystemResult",),
        "repro.sim.system": ("PrivateHierarchy", "SharedHierarchy"),
        "repro.workloads.mixes": ("MIX2", "MIX4", "make_workloads", "mix_name"),
    },
)
__all__.append("__version__")
