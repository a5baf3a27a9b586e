"""Golden-digest regression tests: fixed-seed runs are bit-identical.

One small fixed-seed simulation per scheme in the policy registry (plus
the parameterised families and the shared LLC) is digested — every
per-core counter, the bus traffic and the L1 counters hashed with
SHA-256 — and compared against ``tests/golden_digests.json``.  Extra
cells widen the coverage beyond that multiprogrammed mix: a
multithreaded shared-data kernel (S->M store upgrades that must
invalidate peers), a prefetch-enabled mix (L1 entries pointing at
lines filled without a demand access), and two way-sweep cells of the
Figure 1/2 cache (their digests also cover the per-set miss counts).

The stored digests were generated on the pre-observability kernel, so
they certify two things at once:

* the observability hooks (engine sampling thresholds, hierarchy event
  emission) left the disabled path **bit-identical** — not just
  statistically similar — to the un-instrumented simulator;
* any future "optimization" that disturbs simulated behaviour fails
  here before it can corrupt results.

Regenerate (only after an *intentional* behaviour change) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_digests.py

and commit the refreshed JSON together with the change that justifies it.
The update run prints each scheme's old -> new digest (``-s`` to see
them) and refuses to run when the ``CI`` environment variable is set —
golden updates are a reviewed, local-only operation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.policies.registry import available_schemes
from repro.sim.results import SystemResult

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"

#: The fixed-seed run every scheme is digested on: a capacity-hungry
#: two-core mix, small enough to keep the whole matrix under a minute.
MIX = (471, 444)
QUOTA = 4_000
WARMUP = 2_000
SEED = 7

#: Every fixed registry scheme, the parameterised families, and the
#: shared LLC (the runner handles "shared" outside the registry).
SCHEMES = sorted(available_schemes()) + ["ascc/64", "avgcc/128", "shared"]

#: Cells outside the scheme sweep, keyed as stored in the digest table.
MULTITHREAD_CELL = "multithread:lu/ascc"
PREFETCH_CELL = "prefetch:471+444/avgcc"
#: Way-sweep cells: ``l2_ways`` value by cell name.
WAYSWEEP_CELLS = {"waysweep:473@2": 2, "waysweep:473@full": "full"}
CELLS = SCHEMES + [MULTITHREAD_CELL, PREFETCH_CELL, *WAYSWEEP_CELLS]


def simulate(scheme: str) -> SystemResult:
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(quota=QUOTA, warmup=WARMUP, seed=SEED)
    return runner.run(MIX, scheme)


def simulate_fields(**fields) -> SystemResult:
    """``simulate_spec`` of the fixed-seed spec with ``fields`` set."""
    from repro.api.spec import RunSpec
    from repro.execution.simulate import simulate_spec

    return simulate_spec(RunSpec(quota=QUOTA, warmup=WARMUP, seed=SEED, **fields))


def simulate_multithread() -> SystemResult:
    """Four ``lu`` threads sharing one matrix on 512 kB private LLCs,
    as in the Section 6.3 sweep."""
    from repro.experiments.sec63_multithread import MT_L2_PAPER_BYTES

    return simulate_fields(
        kernel=("lu", 4), scheme="ascc", l2_paper_bytes=MT_L2_PAPER_BYTES
    )


def simulate_prefetch() -> SystemResult:
    from repro.experiments.runner import ExperimentRunner
    from repro.sim.config import PrefetchConfig

    runner = ExperimentRunner(
        quota=QUOTA, warmup=WARMUP, seed=SEED, prefetch=PrefetchConfig()
    )
    return runner.run(MIX, "avgcc")


def simulate_cell(cell: str) -> SystemResult:
    if cell == MULTITHREAD_CELL:
        return simulate_multithread()
    if cell == PREFETCH_CELL:
        return simulate_prefetch()
    if cell in WAYSWEEP_CELLS:
        return simulate_fields(mix=(473,), scheme="baseline", l2_ways=WAYSWEEP_CELLS[cell])
    return simulate(cell)


def digest(result: SystemResult) -> str:
    """SHA-256 over every counter a behaviour change could disturb.

    ``repr`` of ints and floats is exact in Python 3, so two runs digest
    equal iff every counter (including float cycle counts) is bit-equal.
    A way-sweep result's per-set miss counts join the snapshot.
    """
    snapshot = (
        result.scheme,
        result.workload,
        [astuple(stats) for stats in result.cores],
        astuple(result.traffic),
    )
    if result.set_misses is not None:
        snapshot += (result.set_misses,)
    return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scheme", CELLS)
def test_fixed_seed_run_matches_golden_digest(scheme):
    golden = load_golden()
    measured = digest(simulate_cell(scheme))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        assert not os.environ.get("CI"), (
            "REPRO_UPDATE_GOLDEN must never run in CI: golden digests are "
            "regenerated locally, reviewed, and committed with the "
            "behaviour change that justifies them"
        )
        previous = golden.get("digests", {}).get(scheme)
        if previous is None:
            print(f"golden: {scheme}: NEW {measured[:16]}")
        elif previous != measured:
            print(f"golden: {scheme}: {previous[:16]} -> {measured[:16]}")
        else:
            print(f"golden: {scheme}: unchanged")
        golden.setdefault("config", {}).update(
            mix=list(MIX), quota=QUOTA, warmup=WARMUP, seed=SEED
        )
        golden.setdefault("digests", {})[scheme] = measured
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return
    assert "digests" in golden, (
        f"{GOLDEN_PATH} is missing; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert scheme in golden["digests"], (
        f"no golden digest for scheme {scheme!r}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert measured == golden["digests"][scheme], (
        f"scheme {scheme!r} diverged from its golden fixed-seed digest — "
        "simulated behaviour changed. If intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1 and explain the change in the commit."
    )


def test_golden_config_matches_test_parameters():
    """The stored digests must describe the run this test performs."""
    golden = load_golden()
    assert golden, f"{GOLDEN_PATH} is missing"
    assert golden["config"] == {
        "mix": list(MIX),
        "quota": QUOTA,
        "warmup": WARMUP,
        "seed": SEED,
    }


def test_digest_is_sensitive_to_counter_changes():
    """The digest must notice a single-counter change (guards the guard)."""
    result = simulate("baseline")
    before = digest(result)
    result.cores[0].l2_local_hits += 1
    assert digest(result) != before
