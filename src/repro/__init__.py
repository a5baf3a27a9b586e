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

from repro.api.session import Session
from repro.api.spec import RunSpec, SpecError, spec_grid
from repro.experiments.runner import ExperimentRunner, MixOutcome, run_mix
from repro.policies.registry import available_schemes, make_policy
from repro.sim.config import ScaleModel, SystemConfig, default_config
from repro.sim.engine import Engine
from repro.sim.results import SystemResult
from repro.sim.system import PrivateHierarchy, SharedHierarchy
from repro.workloads.mixes import MIX2, MIX4, make_workloads, mix_name

__version__ = "6.0.0"

__all__ = [
    "Engine",
    "ExperimentRunner",
    "MIX2",
    "MIX4",
    "MixOutcome",
    "PrivateHierarchy",
    "RunSpec",
    "ScaleModel",
    "Session",
    "SharedHierarchy",
    "SpecError",
    "SystemConfig",
    "SystemResult",
    "available_schemes",
    "default_config",
    "make_policy",
    "make_workloads",
    "mix_name",
    "run_mix",
    "spec_grid",
    "__version__",
]
