"""Call-budget gate: Python calls per simulated L2 access, pinned.

Not collected by the default test run (``testpaths = ["tests"]``); CI
invokes it explicitly in the ``perf`` job::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_call_budget.py

Wall-clock bands cannot catch a 20% slowdown on a host whose runs spread
15-25%, but call counts are deterministic for a fixed seed.  Each cell
below is one shape of the layer-ledger benchmark (``perfbench/``): a
4-core 256 kB cell like ``l2-pressure`` and a 2-core 1 MB cell like
``fig-sweep``.  It runs once to warm the trace memo, then again under
:mod:`cProfile`.  The gate counts calls to functions defined under
``src/repro/`` (comprehension and generator frames excluded: PEP 709
inlines comprehensions on 3.12 but not on 3.11) and divides by the
cell's L2 accesses from its bus traffic (local hits + remote hits +
memory fetches).  Each ratio must stay within 5% of its pinned value, so
a change that adds (or removes) work per access has to update the pin
and say why.

The ``l2-pressure``-shaped cell also pins two layers on their own: calls
into the cache arrays (``src/repro/cache/``) and into policy code
(``src/repro/policies/`` and ``src/repro/core/``) per L2 access.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats

import pytest

from repro.api import RunSpec
from repro.execution.simulate import simulate_spec

KB = 1024

#: Allowed relative drift of calls per L2 access from the pinned value.
BAND = 0.05

#: cell id -> (spec, pinned named ``repro`` calls per L2 access).
CELLS = {
    "445+401+444+456/ascc/256K": (
        RunSpec(
            mix=(445, 401, 444, 456), scheme="ascc", quota=8_000,
            warmup=8_000, seed=7, l2_paper_bytes=256 * KB, trace_cache=True,
        ),
        4.426,
    ),
    "429+401/avgcc/1M": (
        RunSpec(
            mix=(429, 401), scheme="avgcc", quota=8_000, warmup=8_000,
            seed=7, l2_paper_bytes=1024 * KB, trace_cache=True,
        ),
        5.293,
    ),
}

#: The cell whose layers are pinned one by one.
LAYER_CELL = "445+401+444+456/ascc/256K"

#: layer -> (packages under ``src/repro/``, pinned calls per L2 access).
LAYERS = {
    "cache": (("cache",), 1.589),
    "policy": (("policies", "core"), 1.332),
}

SRC = os.sep + os.path.join("src", "repro") + os.sep


@functools.lru_cache(maxsize=None)
def calls_per_l2_access(spec: RunSpec) -> dict:
    """Named ``repro`` calls per L2 access, by package under ``src/repro/``."""
    simulate_spec(spec)  # warm the trace memo
    profile = cProfile.Profile()
    profile.enable()
    result = simulate_spec(spec)
    profile.disable()
    calls: dict = {}
    for (filename, _, name), (primitive, *_) in pstats.Stats(profile).stats.items():
        if SRC in filename and not name.startswith("<"):
            package = filename.split(SRC, 1)[1].split(os.sep, 1)[0]
            calls[package] = calls.get(package, 0) + primitive
    traffic = result.traffic
    accesses = traffic.local_hits + traffic.remote_hits + traffic.memory_fetches
    return {package: n / accesses for package, n in calls.items()}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_calls_per_l2_access_within_budget(cell, monkeypatch):
    # The default code path: slot backend, no sanitizer.
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec, pinned = CELLS[cell]
    measured = sum(calls_per_l2_access(spec).values())
    assert abs(measured - pinned) <= BAND * pinned, (
        f"{cell}: {measured:.3f} named repro calls per L2 access, pinned "
        f"{pinned} (band ±{BAND:.0%}); update the pin only with a change "
        "that explains the new per-access work"
    )


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_calls_per_l2_access_within_budget(layer, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    packages, pinned = LAYERS[layer]
    calls = calls_per_l2_access(CELLS[LAYER_CELL][0])
    measured = sum(calls.get(package, 0.0) for package in packages)
    assert abs(measured - pinned) <= BAND * pinned, (
        f"{LAYER_CELL}: {measured:.3f} {layer} calls per L2 access, pinned "
        f"{pinned} (band ±{BAND:.0%}); update the pin only with a change "
        "that explains the new per-access work"
    )
