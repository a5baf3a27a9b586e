"""Correctness tooling: runtime sanitizer, differential grid, metamorphic checks.

Three independent layers of verification for the simulator (DESIGN §14):

* :mod:`repro.verify.sanitizer` — an :class:`InvariantChecker` that
  rides along a live simulation (``--sanitize`` / ``REPRO_SANITIZE=1`` /
  ``RunSpec.sanitize``) and raises :class:`InvariantViolation` the
  moment MESI legality, L1 inclusion, recency-stack integrity, SSL
  bounds or spill conservation break;
* :mod:`repro.verify.differential` — one spec executed across every
  {backend} x {trace mode} x {execution path} combination with digest
  identity asserted (``repro verify --grid``);
* :mod:`repro.verify.metamorphic` — relations between *related* specs
  (seed stability, core-permutation symmetry, warmup monotonicity,
  alone-run equivalence) checked directly or under hypothesis.
"""

from repro._lazy import exports

# Re-exported lazily: a sanitized run loads the sanitizer alone, not the
# differential and metamorphic harnesses.
__all__, __getattr__ = exports(
    __name__,
    {
        "repro.verify.differential": (
            "BACKENDS",
            "PATHS",
            "TRACE_MODES",
            "GridCell",
            "GridReport",
            "assert_grid_identical",
            "run_cell",
            "run_grid",
        ),
        "repro.verify.metamorphic": (
            "PERMUTATION_EXACT_SCHEMES",
            "PERMUTATION_PAIR_EXCLUDED",
            "check_alone_equivalence",
            "check_core_permutation",
            "check_seed_stability",
            "check_warmup_monotonicity",
            "pair_permutation_schemes",
            "simulate_permuted",
        ),
        "repro.verify.sanitizer": (
            "DEFAULT_SWEEP_INTERVAL",
            "InvariantChecker",
            "InvariantViolation",
            "arm_state_corruption",
            "attach_sanitizer",
            "corrupt_line_state",
            "env_sanitize_enabled",
        ),
    },
)
