"""Opcode budget: bytecodes executed per record and per L2 access, pinned.

Not collected by the default test run (``testpaths = ["tests"]``); CI
invokes it explicitly in the ``perf`` job::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_opcode_budget.py

The call budget (``test_call_budget.py``) counts named calls, so it
cannot see work added inside one function, and ``Engine.run`` is one
function that executes most of the simulator's bytecode.  This gate
counts executed opcodes with ``sys.settrace`` and ``f_trace_opcodes`` on
the call budget's two cells (one run to warm the trace memo, then a
traced run):

* ``engine``: opcodes executed in ``Engine.run``'s own frame per trace
  record (every record is an L1 hit or an L1 miss);
* ``system``: opcodes executed in frames of ``repro/sim/system.py`` (the
  hierarchies' access paths) per L2 access.

Opcode counts are deterministic for a fixed seed and interpreter, but
each CPython minor version compiles differently, so the pins are kept
per version; on a version without pins the test is skipped.  Each ratio
must stay within 5% of its pin, so a change that adds (or removes)
bytecode per record or per access has to update the pin and say why.
"""

from __future__ import annotations

import functools
import os
import sys

import pytest

from repro.sim.engine import Engine

from benchmarks.perf.test_call_budget import CELLS

#: Allowed relative drift of opcodes per unit from the pinned value.
BAND = 0.05

#: (major, minor) -> cell id -> pinned (engine opcodes per record,
#: system.py opcodes per L2 access).
PINS = {
    (3, 11): {
        "445+401+444+456/ascc/256K": (68.40, 137.01),
        "429+401/avgcc/1M": (56.69, 147.61),
    },
    (3, 12): {
        "445+401+444+456/ascc/256K": (68.76, 131.92),
        "429+401/avgcc/1M": (57.27, 141.53),
    },
}

SYSTEM_PY = os.path.join("repro", "sim", "system.py")


@functools.lru_cache(maxsize=None)
def opcodes_per_unit(cell: str) -> tuple[float, float]:
    """(``Engine.run`` opcodes per record, ``system.py`` opcodes per L2
    access) for one traced run of ``cell``."""
    from repro.execution.simulate import simulate_spec

    spec = CELLS[cell][0]
    simulate_spec(spec)  # warm the trace memo
    run_code = Engine.run.__code__
    counts = {"engine": 0, "system": 0}
    engines = []

    def tracer(key):
        def trace(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            elif event == "return" and key == "engine":
                engines.append(frame.f_locals["self"])
            return trace

        return trace

    on_engine, on_system = tracer("engine"), tracer("system")

    def on_call(frame, event, arg):
        code = frame.f_code
        if code is run_code:
            frame.f_trace_opcodes = True
            return on_engine
        if code.co_filename.endswith(SYSTEM_PY):
            frame.f_trace_opcodes = True
            return on_system
        return None

    # Python 3.12 only instruments opcode events if some frame asked for
    # them before the trace function is installed.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(on_call)
    try:
        result = simulate_spec(spec)
    finally:
        sys.settrace(None)
    (engine,) = engines
    records = sum(l1.hits + l1.misses for l1 in engine.hierarchy.l1s)
    traffic = result.traffic
    accesses = traffic.local_hits + traffic.remote_hits + traffic.memory_fetches
    return counts["engine"] / records, counts["system"] / accesses


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("layer", ["engine", "system"])
def test_opcodes_within_budget(cell, layer, monkeypatch):
    pins = PINS.get(sys.version_info[:2])
    if pins is None:
        pytest.skip(f"no opcode pins for Python {sys.version_info[0]}.{sys.version_info[1]}")
    # The default code path: slot backend, no sanitizer.
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    index = ("engine", "system").index(layer)
    pinned = pins[cell][index]
    measured = opcodes_per_unit(cell)[index]
    unit = "record" if layer == "engine" else "L2 access"
    assert abs(measured - pinned) <= BAND * pinned, (
        f"{cell}: {measured:.2f} {layer} opcodes per {unit}, pinned {pinned} "
        f"(band ±{BAND:.0%}); update the pin only with a change that "
        "explains the new work"
    )
