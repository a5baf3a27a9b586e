"""FaultPlan: construction, seeding, binding, env knob, fault application."""

import pytest

from repro.execution.faults import (
    CORRUPTED_RESULT,
    Fault,
    FaultPlan,
    InjectedCrash,
    apply_fault,
    fault_plan_from_env,
)

CELLS = [((code,), scheme) for code in (401, 403, 429, 444) for scheme in ("a", "b")]


def test_fault_rejects_unknown_kind_and_bad_attempt():
    with pytest.raises(ValueError):
        Fault("explode")
    with pytest.raises(ValueError):
        Fault("crash", attempt=0)


def test_from_spec_string_parses_counts_seed_and_hang_seconds():
    plan = FaultPlan.from_spec("crash=2, hang=1, seed=9, hang_seconds=0.5")
    assert plan.spec == {"crash": 2, "hang": 1}
    assert plan.seed == 9
    assert plan.hang_seconds == 0.5


def test_from_spec_rejects_unknown_kind_and_bad_entry():
    with pytest.raises(ValueError):
        FaultPlan.from_spec("explode=1")
    with pytest.raises(ValueError):
        FaultPlan.from_spec("crash")


def test_bind_is_deterministic_per_seed():
    victims = []
    for _ in range(2):
        plan = FaultPlan.from_spec("crash=2,hang=1", seed=42)
        plan.bind(CELLS)
        victims.append(sorted(plan.faults))
    assert victims[0] == victims[1]
    other = FaultPlan.from_spec("crash=2,hang=1", seed=43)
    other.bind(CELLS)
    assert sorted(other.faults) != victims[0]  # 8 cells: collision ~0


def test_bind_preserves_explicit_faults_and_counts():
    plan = FaultPlan.from_spec("crash=1", seed=0)
    plan.faults[CELLS[0]] = Fault("hang", seconds=0.1)
    plan.bind(CELLS)
    kinds = sorted(fault.kind for fault in plan.faults.values())
    assert kinds == ["crash", "hang"]
    assert plan.faults[CELLS[0]].kind == "hang"


def test_fault_for_fires_only_on_its_attempt():
    cell = CELLS[0]
    plan = FaultPlan({cell: Fault("crash", attempt=2)})
    assert plan.fault_for(cell, 1) is None
    assert plan.fault_for(cell, 2) is not None
    assert plan.fault_for(cell, 3) is None
    assert plan.fault_for(CELLS[1], 2) is None


def test_env_knob_parses_and_defaults_to_none(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert fault_plan_from_env() is None
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash=1,seed=3")
    plan = fault_plan_from_env()
    assert plan is not None and plan.spec == {"crash": 1} and plan.seed == 3


def test_apply_fault_crash_corrupt_and_in_process_die():
    with pytest.raises(InjectedCrash):
        apply_fault(("crash", 0.0))
    assert apply_fault(("corrupt", 0.0)) == CORRUPTED_RESULT
    # "die" must never hard-exit the supervising process itself.
    with pytest.raises(InjectedCrash):
        apply_fault(("die", 0.0), in_process=True)
    assert apply_fault(("hang", 0.0)) is None  # zero-second hang returns


def test_apply_fault_crash_process_downgrades_in_process():
    # SIGKILLing the supervising process would take the test run with
    # it, so the in-process path must degrade to a plain crash.
    with pytest.raises(InjectedCrash):
        apply_fault(("crash_process", 0.0), in_process=True)
