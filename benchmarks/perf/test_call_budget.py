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
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

from repro.api import RunSpec
from repro.experiments.runner import simulate_spec

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
        8.629,
    ),
    "429+401/avgcc/1M": (
        RunSpec(
            mix=(429, 401), scheme="avgcc", quota=8_000, warmup=8_000,
            seed=7, l2_paper_bytes=1024 * KB, trace_cache=True,
        ),
        10.112,
    ),
}

SRC = os.sep + os.path.join("src", "repro") + os.sep


def calls_per_l2_access(spec: RunSpec) -> float:
    simulate_spec(spec)  # warm the trace memo
    profile = cProfile.Profile()
    profile.enable()
    result = simulate_spec(spec)
    profile.disable()
    calls = sum(
        primitive
        for (filename, _, name), (primitive, *_) in pstats.Stats(profile).stats.items()
        if SRC in filename and not name.startswith("<")
    )
    traffic = result.traffic
    return calls / (traffic.local_hits + traffic.remote_hits + traffic.memory_fetches)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_calls_per_l2_access_within_budget(cell, monkeypatch):
    # The default code path: slot backend, no sanitizer.
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec, pinned = CELLS[cell]
    measured = calls_per_l2_access(spec)
    assert abs(measured - pinned) <= BAND * pinned, (
        f"{cell}: {measured:.3f} named repro calls per L2 access, pinned "
        f"{pinned} (band ±{BAND:.0%}); update the pin only with a change "
        "that explains the new per-access work"
    )
