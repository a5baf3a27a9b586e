"""Per-layer self time, measured from outside the program.

The traced run installs one wrapper per (class, public method) listed in
:data:`WRAPPED`, before any simulator object is built.  Each wrapper
times its call and keeps a per-thread stack, so a call's *self* time is
its duration minus the wrapped calls nested inside it.  Nothing here is
imported by the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: Hook methods of ``repro.policies.base.LLCPolicy`` timed on every
#: policy class that defines them.
POLICY_HOOKS = (
    "attach",
    "bind",
    "begin_warmup",
    "end_warmup",
    "on_access",
    "tick",
    "should_spill",
    "select_receiver",
    "wants_swap",
    "on_spill",
    "insertion_position",
    "spill_insertion_position",
    "choose_victim_position",
    "role",
)

_ARRAY_METHODS = (
    "lookup",
    "probe",
    "contains",
    "recency_position",
    "fill",
    "fill_fields",
    "release",
    "evict",
    "invalidate",
    "victim_candidate",
    "set_lines",
    "occupancy",
)

_DIRECTORY_METHODS = (
    "add",
    "remove",
    "holders",
    "peers",
    "is_last_copy",
    "is_on_chip",
    "holder_count",
)


def _trace_probe(trace) -> dict:
    return {"records": len(trace.records)}


def _engine_probe(engine) -> dict:
    l1s = engine.hierarchy.l1s
    return {
        "l1_hits": sum(l1.hits for l1 in l1s),
        "l1_misses": sum(l1.misses for l1 in l1s),
    }


#: The one table of wrappers: (module, class, methods, layer, probe).
#: A probe reads counters off ``self`` before and after each call; the
#: ledger accumulates the differences.
WRAPPED = (
    ("repro.workloads.trace_cache", "MaterializedTrace", ("ensure",), "trace", _trace_probe),
    ("repro.workloads.trace_cache", "TraceCache", ("get", "materialize_for_run"), "trace", None),
    ("repro.sim.engine", "Engine", ("run",), "engine", _engine_probe),
    ("repro.sim.system", "PrivateHierarchy", ("access", "write_through"), "l2", None),
    ("repro.sim.system", "SharedHierarchy", ("access", "write_through"), "l2", None),
    ("repro.cache.cache", "SlotCacheArray", _ARRAY_METHODS, "l2array", None),
    ("repro.coherence.directory", "PresenceDirectory", _DIRECTORY_METHODS, "directory", None),
    ("repro.experiments.parallel", "ResultCache", ("get", "put"), "scheduler", None),
    ("repro.service.durability", "BatchJournal", ("append", "flush"), "scheduler", None),
)

#: Layers whose self time is the simulator's L2 side.
L2_SIDE = ("l2", "l2array", "directory", "policy")


class Ledger:
    """Self time, calls and inclusive time per wrapped method.

    Each thread accumulates into its own tables (registered once, under
    a lock), so concurrent callers never lose an update; :meth:`totals`
    merges them.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        #: ``method key -> {id(obj): probe reading}``: each probed
        #: object's reading after its latest call.
        self.last: dict[str, dict] = defaultdict(dict)

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {
                "stack": [],
                "self_s": defaultdict(float),
                "incl_s": defaultdict(float),
                "calls": defaultdict(int),
                "counts": defaultdict(int),
            }
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, fn, key: str, probe=None):
        """``fn`` timed under ``key`` (``"layer:Class.method"``)."""
        clock = self.clock
        table_of = self._table
        last = self.last[key]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            table = table_of()
            stack = table["stack"]
            if probe is not None:
                before = probe(args[0])
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                table["self_s"][key] += elapsed - frame[0]
                table["incl_s"][key] += elapsed
                table["calls"][key] += 1
                if probe is not None:
                    after = last[id(args[0])] = probe(args[0])
                    counts = table["counts"]
                    for name, value in after.items():
                        counts[f"{key}.{name}"] += value - before[name]

        return timed

    def totals(self) -> dict:
        """Merged ``self_s``/``incl_s``/``calls``/``counts`` of every thread."""
        merged = {
            "self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
        }
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, out in merged.items():
                for key, value in table[name].items():
                    out[key] += value
        return {name: dict(values) for name, values in merged.items()}


def _policy_classes():
    from repro.policies import registry  # noqa: F401 - imports every policy
    from repro.policies.base import LLCPolicy

    found, todo = {}, [LLCPolicy]
    while todo:
        cls = todo.pop()
        found[cls] = None
        todo.extend(cls.__subclasses__())
    return list(found)


def install(ledger: Ledger) -> list:
    """Wrap every method in :data:`WRAPPED` and every policy hook.

    Returns ``(class, name, original)`` triples for :func:`uninstall`.
    """
    installed = []

    def patch(cls, name, layer, probe):
        original = cls.__dict__[name]
        if getattr(original, "__isabstractmethod__", False):
            return
        key = f"{layer}:{cls.__name__}.{name}"
        setattr(cls, name, ledger.wrap(original, key, probe))
        installed.append((cls, name, original))

    for module, class_name, methods, layer, probe in WRAPPED:
        cls = getattr(importlib.import_module(module), class_name)
        for name in methods:
            patch(cls, name, layer, probe)
    for cls in _policy_classes():
        for name in POLICY_HOOKS:
            if name in cls.__dict__:
                patch(cls, name, "policy", None)
    return installed


def uninstall(installed: list) -> None:
    for cls, name, original in reversed(installed):
        setattr(cls, name, original)
