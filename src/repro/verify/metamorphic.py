"""Metamorphic properties of the simulator.

Differential testing (same spec, different machinery) catches drift;
metamorphic testing catches *wrongness* the digests cannot see: relations
between the results of related specs that must hold if the simulated
machine is the one the paper describes.  The properties, each exposed as
a ``check_*`` function usable directly or under hypothesis (see
``tests/test_verify_metamorphic.py``):

* **Seed stability** — a spec is a pure function of its parameters: two
  simulations of the same spec produce the same digest.
* **Core-permutation symmetry** — relabeling the cores of a mix permutes
  the per-core statistics and leaves the bus traffic unchanged.  The
  engine seeds core *i* with ``Random((seed << 8) + i)`` and its heap
  breaks cycle ties by core id, so a naive permutation changes both the
  streams and the interleaving; :func:`simulate_permuted` therefore
  re-seeds each permuted core with its *original* identity, which makes
  the two runs isomorphic machine states.  Exactness then depends on
  the scheme's arbitration being position-independent:

  - :data:`PERMUTATION_EXACT_SCHEMES` (``baseline``) is exact at any
    core count — no cooperation means no arbitration at all.
  - Every cooperative scheme *except* the DSR family is exact on
    **2-core** mixes (:data:`PERMUTATION_PAIR_EXCLUDED`): with a single
    peer, receiver selection and holder choice never face more than one
    candidate, so the shared hierarchy RNG is never consulted with an
    index-ordered candidate list.  At 3+ cores, ``rng.choice`` over
    candidates ordered by cache id maps the same draw to a different
    peer after relabeling, so symmetry only holds on executions where
    no multi-candidate draw occurs (certified case by case in the
    tests, not promised in general).
  - The DSR family is position-dependent by design: its set-dueling
    monitors assign sample sets to *fixed* cache positions, so
    relabeling genuinely changes policy decisions.
* **Warmup monotonicity** — each core's measure-phase onset (the
  committed-instruction count at which recording starts) is
  non-decreasing in the warmup parameter: a longer warmup can never
  start measuring earlier.
* **Alone-run equivalence** — a 1-core mix under any cooperative scheme
  equals the private-LRU baseline: with no peers there is nobody to
  spill to, swap with, or snoop, so every scheme degenerates to the
  same machine.
"""

from __future__ import annotations

from dataclasses import astuple
from random import Random
from typing import Sequence

from repro.api.spec import RunSpec
from repro.sim.results import SystemResult

#: Schemes for which seed-aware core permutation is exact at any core
#: count (see module docstring).
PERMUTATION_EXACT_SCHEMES: tuple[str, ...] = ("baseline",)

#: Schemes excluded from the 2-core permutation guarantee: set-dueling
#: monitors pin sample sets to cache positions, so DSR-family policy
#: decisions change under relabeling even with a single peer.
PERMUTATION_PAIR_EXCLUDED: tuple[str, ...] = ("dsr", "dsr+dip", "dsr-3s")


def pair_permutation_schemes() -> list[str]:
    """Registry schemes whose 2-core permutation symmetry is exact."""
    from repro.policies.registry import available_schemes

    return sorted(set(available_schemes()) - set(PERMUTATION_PAIR_EXCLUDED))


def core_signature(result: SystemResult) -> list[tuple]:
    """Per-core counter tuples with the identity fields stripped.

    Drops ``core_id`` and ``recording`` (the first two CoreStats fields)
    so signatures compare across a relabeling.
    """
    return [astuple(stats)[2:] for stats in result.cores]


def traffic_signature(result: SystemResult) -> tuple:
    return astuple(result.traffic)


def simulate_plain(spec: RunSpec) -> SystemResult:
    """Simulate without trace-cache wrapping (the identity baseline).

    :func:`simulate_permuted` builds its engine by hand and cannot use
    the position-keyed trace buffers, so both sides of a permutation
    comparison run the raw workload generators.
    """
    from repro.execution.simulate import simulate_spec

    return simulate_spec(spec.replace(trace_cache=False))


def simulate_permuted(spec: RunSpec, perm: Sequence[int]) -> SystemResult:
    """Simulate ``spec`` with its cores relabeled by ``perm``.

    Core ``i`` of the permuted machine runs workload ``spec.mix[perm[i]]``
    *with the RNG identity of original core* ``perm[i]`` — the
    construction that makes the permuted run's state machine isomorphic
    to the original's, so ``result.cores[i]`` must equal the original's
    ``cores[perm[i]]`` (modulo the core_id field) and the bus traffic
    must match exactly.
    """
    from repro.policies.registry import make_policy
    from repro.sim.config import default_config
    from repro.sim.engine import Engine, open_source
    from repro.sim.system import PrivateHierarchy
    from repro.workloads.mixes import make_workloads, mix_name

    perm = list(perm)
    if sorted(perm) != list(range(len(spec.mix))):
        raise ValueError(f"{perm} is not a permutation of the {len(spec.mix)} cores")
    params = spec.runner_params()
    codes = tuple(spec.mix[p] for p in perm)
    workloads = make_workloads(codes, params["scale"])
    config = default_config(
        num_cores=len(codes),
        scale=params["scale"],
        quota=spec.quota,
        seed=spec.seed,
        l2_paper_bytes=spec.l2_paper_bytes,
        prefetch=params["prefetch"],
    )
    hierarchy = PrivateHierarchy(config, make_policy(spec.scheme))
    engine = Engine(hierarchy, workloads, config.quota, config.seed, spec.warmup)
    for i, core in enumerate(engine.cores):
        core.rng = Random((spec.seed << 8) + perm[i])
        core.source = open_source(core.workload, core.rng)
    engine.run()
    return SystemResult(
        scheme=spec.scheme,
        workload=mix_name(codes),
        cores=hierarchy.stats,
        traffic=hierarchy.traffic,
        latencies=config.latencies,
    )


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


def check_seed_stability(spec: RunSpec) -> None:
    """Two simulations of one spec are bit-identical."""
    from repro.api.session import result_digest
    from repro.execution.simulate import simulate_spec

    first = result_digest(simulate_spec(spec))
    second = result_digest(simulate_spec(spec))
    assert first == second, (
        f"{spec.name}: same spec simulated twice gave different digests "
        f"({first[:16]} vs {second[:16]})"
    )


def check_core_permutation(spec: RunSpec, perm: Sequence[int]) -> None:
    """Relabeling cores permutes per-core stats and preserves traffic."""
    original = simulate_plain(spec)
    permuted = simulate_permuted(spec, perm)
    orig_sig = core_signature(original)
    perm_sig = core_signature(permuted)
    for i, p in enumerate(perm):
        assert perm_sig[i] == orig_sig[p], (
            f"{spec.name} under permutation {list(perm)}: permuted core {i} "
            f"does not match original core {p}"
        )
    assert traffic_signature(permuted) == traffic_signature(original), (
        f"{spec.name} under permutation {list(perm)}: bus traffic diverged"
    )


def check_warmup_monotonicity(spec: RunSpec, warmups: Sequence[int]) -> None:
    """Measure onset per core is non-decreasing in the warmup length."""
    from repro.execution.simulate import simulate_spec
    from repro.obs.observer import Observer

    class _MeasureOnset(Observer):
        def __init__(self) -> None:
            super().__init__()
            self.onsets: dict[int, int] = {}

        def on_phase(self, core_id, phase, instructions, cycles):
            if phase == "measure":
                self.onsets[core_id] = instructions

    ordered = sorted(int(w) for w in warmups)
    if any(w <= 0 for w in ordered):
        raise ValueError("warmup monotonicity needs positive warmups "
                         "(warmup=0 emits no measure-phase event)")
    previous: dict[int, int] = {}
    for warmup in ordered:
        probe = _MeasureOnset()
        simulate_spec(spec.replace(warmup=warmup), observer=probe)
        assert set(probe.onsets) == set(range(len(spec.mix)))
        for core_id, onset in probe.onsets.items():
            assert onset >= warmup, (
                f"{spec.name}: core {core_id} started measuring at "
                f"{onset} < warmup {warmup}"
            )
            if core_id in previous:
                assert onset >= previous[core_id], (
                    f"{spec.name}: core {core_id} measure onset went "
                    f"backwards ({previous[core_id]} -> {onset}) when "
                    f"warmup grew to {warmup}"
                )
        previous = dict(probe.onsets)


def check_alone_equivalence(spec: RunSpec) -> None:
    """A 1-core mix under any scheme equals the private-LLC baseline."""
    from repro.execution.simulate import simulate_spec

    if len(spec.mix) != 1:
        raise ValueError("alone-run equivalence is a 1-core property")
    result = simulate_spec(spec)
    baseline = simulate_spec(spec.replace(scheme="baseline"))
    assert core_signature(result) == core_signature(baseline), (
        f"{spec.name}: a single core under {spec.scheme!r} diverged from "
        f"the baseline private LLC"
    )
    assert traffic_signature(result) == traffic_signature(baseline), (
        f"{spec.name}: single-core bus traffic diverged from baseline"
    )


# --------------------------------------------------------------------- #
# Hypothesis strategies (lazy: hypothesis is a test-time dependency)
# --------------------------------------------------------------------- #


def spec_strategy(
    schemes: Sequence[str] = ("baseline", "ascc", "avgcc"),
    min_cores: int = 1,
    max_cores: int = 3,
    min_quota: int = 500,
    max_quota: int = 2500,
    max_warmup: int = 2000,
):
    """A hypothesis strategy over small, fast-to-simulate ``RunSpec``s.

    Trace-cache wrapping is pinned off so drawn specs compare cleanly
    against :func:`simulate_permuted`'s hand-built engines.
    """
    from hypothesis import strategies as st
    from repro.workloads.spec2006 import all_codes

    codes = sorted(all_codes())
    return st.builds(
        lambda mix, scheme, quota, warmup, seed: RunSpec(
            mix=tuple(mix),
            scheme=scheme,
            quota=quota,
            warmup=warmup,
            seed=seed,
            trace_cache=False,
        ),
        mix=st.lists(
            st.sampled_from(codes), min_size=min_cores, max_size=max_cores
        ),
        scheme=st.sampled_from(list(schemes)),
        quota=st.integers(min_quota, max_quota),
        warmup=st.integers(1, max_warmup),
        seed=st.integers(0, 2**16),
    )


def permutation_strategy(num_cores: int):
    """A strategy over permutations of ``range(num_cores)``."""
    from hypothesis import strategies as st

    return st.permutations(list(range(num_cores)))
