"""Runtime sanitizer: bit-identity when clean, loud death when corrupted.

The two halves of the sanitizer's contract (DESIGN §14):

* attaching it must not change simulated behaviour — a sanitized run's
  result digest equals the plain run's, for cooperative and baseline
  schemes alike;
* a corrupted machine must die with a located :class:`InvariantViolation`
  *during* the run — never return silently-wrong figures.  Corruption
  arrives through the real fault-injection path
  (``faults.apply_fault("corrupt_state")``) as well as the direct
  arming call.
"""

import pickle

import pytest

from repro.api import RunSpec, result_digest
from repro.execution.faults import Fault, apply_fault
from repro.execution.simulate import simulate_spec
from repro.verify import (
    InvariantChecker,
    InvariantViolation,
    arm_state_corruption,
    attach_sanitizer,
    corrupt_line_state,
    env_sanitize_enabled,
)
from repro.verify.sanitizer import consume_armed_corruption

SPEC = RunSpec(mix=(471, 444), scheme="avgcc", quota=1_500, warmup=500)


@pytest.fixture(autouse=True)
def _disarm_leftover_corruption():
    """No test may leak an armed corruption into the next one."""
    consume_armed_corruption()
    yield
    consume_armed_corruption()


# --------------------------------------------------------------------- #
# Zero-interference: sanitized == plain
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", ["baseline", "avgcc", "ascc", "dsr"])
def test_sanitized_run_is_bit_identical(scheme):
    spec = SPEC.replace(scheme=scheme)
    plain = result_digest(simulate_spec(spec))
    sanitized = result_digest(simulate_spec(spec.replace(sanitize=True)))
    assert sanitized == plain


def test_sanitizer_actually_ran():
    """The identity above must not hold because the checker was absent."""
    from repro.policies.registry import make_policy
    from repro.sim.config import default_config
    from repro.sim.engine import Engine
    from repro.sim.system import PrivateHierarchy
    from repro.workloads.mixes import make_workloads

    spec = SPEC.replace(scheme="ascc", quota=6_000, warmup=2_000)
    params = spec.runner_params()
    config = default_config(
        num_cores=2, scale=params["scale"], quota=spec.quota, seed=spec.seed
    )
    hierarchy = PrivateHierarchy(config, make_policy(spec.scheme))
    checker = attach_sanitizer(hierarchy)
    workloads = make_workloads(spec.mix, params["scale"])
    Engine(hierarchy, workloads, config.quota, config.seed, spec.warmup).run()
    assert checker.checks > 0
    assert checker.sweeps >= 1  # at least the engine's final_check
    assert checker.spill_fills > 0  # the ledger saw real spills and swaps
    assert hierarchy.traffic.spills > 0 and hierarchy.traffic.swaps > 0


# --------------------------------------------------------------------- #
# Corruption is caught in-run
# --------------------------------------------------------------------- #


def test_armed_corruption_caught_as_invariant_violation():
    arm_state_corruption(seed=11)
    with pytest.raises(InvariantViolation) as exc_info:
        simulate_spec(SPEC.replace(sanitize=True))
    violation = exc_info.value
    assert violation.invariant in ("resident-valid", "mesi-transition")
    assert violation.access is not None and violation.access > 0
    assert violation.addr is not None
    assert f"[{violation.invariant}]" in str(violation)


def test_violation_reports_live_mid_run_cycle():
    """The violation's cycle context is live, not the pre-run zero."""
    from repro.policies.registry import make_policy
    from repro.sim.config import default_config
    from repro.sim.engine import Engine
    from repro.sim.system import PrivateHierarchy
    from repro.workloads.mixes import make_workloads

    params = SPEC.runner_params()

    def engine(sanitize: bool) -> Engine:
        config = default_config(
            num_cores=2, scale=params["scale"], quota=SPEC.quota, seed=SPEC.seed
        )
        hierarchy = PrivateHierarchy(config, make_policy(SPEC.scheme))
        if sanitize:
            attach_sanitizer(hierarchy)
        workloads = make_workloads(SPEC.mix, params["scale"])
        return Engine(hierarchy, workloads, config.quota, config.seed, SPEC.warmup)

    clean = engine(sanitize=False)
    clean.run()
    final_max = max(core.cycles for core in clean.cores)
    # Seed 7 corrupts a line the run touches again long before the end,
    # so the violation is raised mid-run, not by the final sweep.
    arm_state_corruption(seed=7)
    corrupted = engine(sanitize=True)
    with pytest.raises(InvariantViolation) as exc_info:
        corrupted.run()
    assert corrupted.hierarchy.sanitizer.sweeps == 0
    cycle = exc_info.value.cycle
    assert cycle is not None and 0 < cycle <= final_max


def test_corruption_through_fault_injection_path():
    """The seeded ``corrupt_state`` fault kind arms the same corruption."""
    fault = Fault("corrupt_state", seconds=7)
    assert apply_fault(fault.as_payload()) is None
    with pytest.raises(InvariantViolation):
        simulate_spec(SPEC.replace(sanitize=True))


def test_unsanitized_run_survives_armed_corruption():
    """Without the checker the armed corruption is never injected: the
    plain run completes and stays bit-identical."""
    plain = result_digest(simulate_spec(SPEC))
    arm_state_corruption(seed=11)
    assert result_digest(simulate_spec(SPEC)) == plain
    assert consume_armed_corruption() == 11  # still armed, never consumed


def test_direct_corruption_on_live_hierarchy():
    from random import Random

    from repro.cache.geometry import CacheGeometry
    from repro.policies.registry import make_policy
    from repro.sim.config import SystemConfig
    from repro.sim.system import PrivateHierarchy

    cfg = SystemConfig(
        num_cores=2,
        l2_geometry=CacheGeometry(4 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 1 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
    )
    h = PrivateHierarchy(cfg, make_policy("baseline"))
    checker = attach_sanitizer(h)
    h.access(0, 0x10, False, 0)
    corrupted = corrupt_line_state(h, Random(3))
    assert corrupted is not None
    cache_id, addr = corrupted
    with pytest.raises(InvariantViolation) as exc_info:
        checker.sweep()
    assert exc_info.value.invariant == "resident-valid"
    assert exc_info.value.addr == addr
    assert exc_info.value.core == cache_id


def test_corrupt_line_state_on_empty_hierarchy_is_none():
    from random import Random

    from repro.cache.geometry import CacheGeometry
    from repro.policies.registry import make_policy
    from repro.sim.config import SystemConfig
    from repro.sim.system import PrivateHierarchy

    cfg = SystemConfig(
        num_cores=1,
        l2_geometry=CacheGeometry(4 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 1 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
    )
    h = PrivateHierarchy(cfg, make_policy("baseline"))
    assert corrupt_line_state(h, Random(0)) is None


# --------------------------------------------------------------------- #
# Gating and plumbing
# --------------------------------------------------------------------- #


def test_env_sanitize_enabled_parsing():
    assert not env_sanitize_enabled({})
    for off in ("0", "", "false", "False", "no"):
        assert not env_sanitize_enabled({"REPRO_SANITIZE": off})
    for on in ("1", "true", "yes", "anything"):
        assert env_sanitize_enabled({"REPRO_SANITIZE": on})


def test_env_variable_attaches_sanitizer(monkeypatch):
    """REPRO_SANITIZE=1 + an armed corruption: the run must die, proving
    the env route really attached the checker."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    arm_state_corruption(seed=5)
    with pytest.raises(InvariantViolation):
        simulate_spec(SPEC)


def test_spec_sanitize_false_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    arm_state_corruption(seed=5)
    simulate_spec(SPEC.replace(sanitize=False))  # completes: checker off
    assert consume_armed_corruption() == 5


def test_sanitize_field_roundtrips_but_stays_out_of_identity():
    spec = SPEC.replace(sanitize=True)
    assert RunSpec.from_dict(spec.to_dict()).sanitize is True
    assert spec == SPEC  # compare=False: identity ignores sanitize
    assert RunSpec.from_dict(SPEC.to_dict()).sanitize is None


def test_invariant_violation_pickles_with_context():
    original = InvariantViolation(
        "mesi-exclusivity", "two owners", core=1, set_idx=3, addr=0x40, access=9, cycle=77
    )
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, InvariantViolation)
    assert clone.invariant == "mesi-exclusivity"
    assert (clone.core, clone.set_idx, clone.addr) == (1, 3, 0x40)
    assert (clone.access, clone.cycle) == (9, 77)
    assert str(clone) == str(original)
    assert isinstance(clone, AssertionError)


def test_checker_detects_directory_desync():
    from repro.cache.geometry import CacheGeometry
    from repro.policies.registry import make_policy
    from repro.sim.config import SystemConfig
    from repro.sim.system import PrivateHierarchy

    cfg = SystemConfig(
        num_cores=2,
        l2_geometry=CacheGeometry(4 * 2 * 32, 2, 32),
        l1_geometry=CacheGeometry(2 * 1 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
    )
    h = PrivateHierarchy(cfg, make_policy("baseline"))
    checker = InvariantChecker(h)
    h.access(0, 0x20, False, 0)
    h.directory.add(0x20, 1)  # lie: core 1 never filled the line
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_line(0x20)
    assert exc_info.value.invariant == "directory-sync"
