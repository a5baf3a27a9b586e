"""The paper's tables and figures behind one protocol, plus the runner.

Every experiment exposes ``cells(**params) -> list[RunSpec]`` (what it
simulates), ``render(session, **params)`` (its result, read from the
session's memo) and ``format_result(result) -> str``.  A module is an
experiment, or, where it is only a scheme comparison, its
``COMPARISON`` (a :class:`~repro.experiments.comparison.Comparison`).
:mod:`repro.experiments.registry` names them all.
"""

from repro._lazy import exports

# Re-exported lazily: the scheduler's import of the result cache loads
# no figure code.
__all__, __getattr__ = exports(
    __name__,
    {"repro.experiments.runner": ("ExperimentRunner", "MixOutcome", "run_mix")},
)
