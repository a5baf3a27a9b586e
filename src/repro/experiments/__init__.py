"""The paper's tables and figures behind one protocol, plus the runner.

Every experiment exposes ``cells(**params) -> list[RunSpec]`` (what it
simulates), ``render(session, **params)`` (its result, read from the
session's memo) and ``format_result(result) -> str``.  A module is an
experiment, or, where it is only a scheme comparison, its
``COMPARISON`` (a :class:`~repro.experiments.comparison.Comparison`).
:mod:`repro.experiments.registry` names them all.
"""

from repro.experiments.runner import ExperimentRunner, MixOutcome, run_mix

__all__ = ["ExperimentRunner", "MixOutcome", "run_mix"]
