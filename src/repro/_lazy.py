"""Lazy package exports: a name is imported from its module on first use.

A package ``__init__`` re-exports its public names through
:func:`exports` instead of importing every submodule up front, so a
process loads only the layers it touches: a cluster lane never pays for
the figure code, the scheduler or the verification harness just because
``import repro`` re-exports them.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for ``package`` re-exporting, for each
    module of ``modules``, the names it maps to.

    A resolved name is stored in the package's namespace, so it is
    looked up once.
    """
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(where), __getattr__
