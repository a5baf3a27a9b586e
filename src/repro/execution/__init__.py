"""The execution core shared by the batch service and the figures.

* :mod:`repro.execution.simulate` — :func:`simulate_spec`, the one
  simulation entry point;
* :mod:`repro.execution.report` — the :class:`RunReport` manifest and
  :class:`ExecutorError`, the one retry-exhaustion exception;
* :mod:`repro.execution.faults` — deterministic fault injection.

Nothing here imports the figure package (:mod:`repro.experiments`).
"""
