"""Simulation wiring: configuration, hierarchies, engine, results."""

from repro._lazy import exports

# Re-exported lazily: a spec's validation reads ``repro.sim.config`` only,
# so a process that never simulates (a cluster coordinator) never loads
# the engine or the hierarchies.
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.sim.config": (
            "PAPER_L1",
            "PAPER_L2",
            "PAPER_SWEEP_L2",
            "PrefetchConfig",
            "ScaleModel",
            "SystemConfig",
            "default_config",
        ),
        "repro.sim.engine": ("Engine",),
        "repro.sim.results": ("CoreStats", "SystemResult"),
        "repro.sim.system": ("PrivateHierarchy", "SharedHierarchy"),
    },
)
