"""Differential fuzz: every CacheArray backend against every other.

Two layers of lockstep checking:

* each registered backend (``slot``, ``dict``) against a brutally simple
  list-based oracle — same hit/miss answers, same victims, same recency
  order in every set, same occupancy after every operation; the op
  stream drives the full hierarchy surface including targeted ``evict``
  (the swap-partner path) and spilled-bit flips on resident lines;
* the slot backend directly against the OrderedDict reference, with a
  richer op stream (``fill_fields`` with states and flags, ``evict``,
  victim ``release`` into the slot pool, in-place flag flips) asserting
  the *full* per-line state — address, MESI state and all three
  scheme flags — matches set by set.

Both streams include the two miss-path operations the private hierarchy
drives, ``take_victim`` (detach a full set's LRU or positioned victim)
and ``install`` (fill a free way), so the backends stay in lockstep on
exactly the calls a simulated miss makes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import examples

from repro.cache.cache import (
    CACHE_BACKENDS,
    DictCacheArray,
    Line,
    SlotCacheArray,
)
from repro.cache.geometry import CacheGeometry
from repro.coherence.protocol import Mesi

SETS = 4
WAYS = 4
GEOMETRY = CacheGeometry(SETS * WAYS * 64, WAYS, 64)


class OracleArray:
    """The pre-rewrite semantics: per-set Python lists, MRU first."""

    def __init__(self) -> None:
        self.sets = [[] for _ in range(SETS)]
        self.mask = SETS - 1

    def lookup(self, addr, promote=True):
        stack = self.sets[addr & self.mask]
        for i, line in enumerate(stack):
            if line.addr == addr:
                if promote:
                    stack.insert(0, stack.pop(i))
                return line
        return None

    def fill(self, line, position, victim_position=None):
        stack = self.sets[line.addr & self.mask]
        victim = None
        if len(stack) >= WAYS:
            at = len(stack) - 1 if victim_position is None else victim_position
            victim = stack.pop(at)
        stack.insert(min(max(position, 0), len(stack)), line)
        return victim

    def invalidate(self, addr):
        stack = self.sets[addr & self.mask]
        for i, line in enumerate(stack):
            if line.addr == addr:
                return stack.pop(i)
        return None

    def evict(self, addr):
        line = self.invalidate(addr)
        if line is None:
            raise KeyError(f"line {addr:#x} not present")
        return line

    def probe(self, addr):
        return self.lookup(addr, promote=False)

    def victim_candidate(self, set_idx, position=None):
        stack = self.sets[set_idx]
        if len(stack) < WAYS:
            return None
        return stack[len(stack) - 1 if position is None else position]

    def take_victim(self, set_idx, position=None):
        stack = self.sets[set_idx]
        if len(stack) < WAYS:
            return None
        return stack.pop(len(stack) - 1 if position is None else position)

    def install(self, line, position):
        stack = self.sets[line.addr & self.mask]
        assert len(stack) < WAYS
        stack.insert(min(max(position, 0), len(stack)), line)
        return line


addresses = st.integers(min_value=0, max_value=31)

operations = st.one_of(
    st.tuples(st.just("lookup"), addresses, st.booleans()),
    st.tuples(
        st.just("fill"),
        addresses,
        st.integers(min_value=0, max_value=WAYS),  # insertion position
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(st.just("invalidate"), addresses),
    st.tuples(st.just("evict"), addresses),
    st.tuples(st.just("spill_flag"), addresses, st.booleans()),
    st.tuples(
        st.just("victim"),
        st.integers(min_value=0, max_value=SETS - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(
        st.just("take_victim"),
        st.integers(min_value=0, max_value=SETS - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(
        st.just("install"),
        addresses,
        st.integers(min_value=0, max_value=WAYS),  # insertion position
        st.booleans(),  # spilled
    ),
)


def stacks(array) -> list[list[tuple]]:
    return [[(l.addr, l.spilled) for l in array.set_lines(i)] for i in range(SETS)]


def oracle_stacks(oracle: OracleArray) -> list[list[tuple]]:
    return [[(l.addr, l.spilled) for l in stack] for stack in oracle.sets]


@pytest.mark.parametrize("backend", sorted(CACHE_BACKENDS))
@settings(max_examples=examples(200))
@given(ops=st.lists(operations, max_size=60))
def test_lockstep_with_reference_model(backend, ops):
    array, oracle = CACHE_BACKENDS[backend](GEOMETRY), OracleArray()
    for op in ops:
        if op[0] == "lookup":
            _, addr, promote = op
            got = array.lookup(addr, promote=promote)
            want = oracle.lookup(addr, promote=promote)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.addr == want.addr
        elif op[0] == "fill":
            _, addr, position, victim_position = op
            if array.contains(addr):
                continue  # fill() rejects duplicates; exercised elsewhere
            # Only pass victim positions that exist in the (possibly
            # partially filled) set; fill() indexes the current stack.
            if victim_position is not None and victim_position >= array.occupancy(
                addr & array.set_mask
            ):
                victim_position = None
            got = array.fill(Line(addr, Mesi.EXCLUSIVE), position, victim_position)
            want = oracle.fill(Line(addr, Mesi.EXCLUSIVE), position, victim_position)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.addr == want.addr
        elif op[0] == "invalidate":
            _, addr = op
            got, want = array.invalidate(addr), oracle.invalidate(addr)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.addr == want.addr
        elif op[0] == "evict":
            _, addr = op
            if not array.contains(addr):
                continue  # evict() raises on absent lines; covered below
            got, want = array.evict(addr), oracle.evict(addr)
            assert got.addr == want.addr
            assert got.spilled == want.spilled
        elif op[0] == "spill_flag":
            _, addr, flag = op
            got, want = array.probe(addr), oracle.probe(addr)
            assert (got is None) == (want is None)
            if got is not None:
                got.spilled = flag
                want.spilled = flag
        elif op[0] == "take_victim":
            _, set_idx, position = op
            if position is not None and position >= array.occupancy(set_idx):
                position = None
            got = array.take_victim(set_idx, position)
            want = oracle.take_victim(set_idx, position)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.addr, got.spilled) == (want.addr, want.spilled)
                assert not array.contains(got.addr)
        elif op[0] == "install":
            _, addr, position, spilled = op
            if array.contains(addr) or array.occupancy(addr & array.set_mask) >= WAYS:
                continue  # install() needs an absent line and a free way
            got = array.install(addr, Mesi.EXCLUSIVE, spilled, False, position=position)
            oracle.install(Line(addr, Mesi.EXCLUSIVE, spilled), position)
            assert array.probe(addr) is got
            assert (got.addr, got.state, got.spilled) == (addr, Mesi.EXCLUSIVE, spilled)
        else:  # victim candidate peek
            _, set_idx, position = op
            if position is not None and position >= array.occupancy(set_idx):
                position = None
            got = array.victim_candidate(set_idx, position)
            want = oracle.victim_candidate(set_idx, position)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.addr == want.addr
        # Full-state equivalence after every operation.
        assert stacks(array) == oracle_stacks(oracle)
        assert len(array) == sum(len(s) for s in oracle.sets)
        for set_idx, stack in enumerate(oracle_stacks(oracle)):
            for pos, (addr, _spilled) in enumerate(stack):
                assert array.recency_position(addr) == pos
                assert array.probe(addr) is not None


@pytest.mark.parametrize("backend", sorted(CACHE_BACKENDS))
def test_evict_absent_line_raises(backend):
    """Targeted evict of a non-resident line is a caller bug, not a no-op."""
    array = CACHE_BACKENDS[backend](GEOMETRY)
    with pytest.raises(KeyError):
        array.evict(5)


@pytest.mark.parametrize("backend", sorted(CACHE_BACKENDS))
def test_take_victim_and_install_on_one_set(backend):
    """A full set gives up its victim, which stays readable until the
    next install; installing into a full set is a caller bug."""
    array = CACHE_BACKENDS[backend](GEOMETRY)
    for k in range(WAYS):
        array.install(k * SETS, Mesi.EXCLUSIVE, False, False, position=0)
    assert array.take_victim(1) is None  # set 1 still has free ways
    with pytest.raises(ValueError):
        array.install(WAYS * SETS, Mesi.EXCLUSIVE, False, False, position=0)
    with pytest.raises(IndexError):
        array.take_victim(0, WAYS)
    victim = array.take_victim(0, 1)
    assert (victim.addr, victim.state) == ((WAYS - 2) * SETS, Mesi.EXCLUSIVE)
    assert array.occupancy(0) == WAYS - 1 and not array.contains(victim.addr)
    assert array.take_victim(0) is None  # a way is free again
    line = array.install(WAYS * SETS, Mesi.MODIFIED, True, True, position=WAYS)
    assert array.set_lines(0)[-1] is line and line.spilled and line.shared_region
    assert not line.prefetched


# --------------------------------------------------------------------- #
# Slot backend vs OrderedDict reference: full per-line state lockstep
# --------------------------------------------------------------------- #

STATES = list(Mesi)

rich_operations = st.one_of(
    st.tuples(st.just("lookup"), addresses, st.booleans()),
    st.tuples(
        st.just("fill"),
        addresses,
        st.sampled_from(STATES),
        st.booleans(),  # spilled
        st.booleans(),  # shared_region
        st.booleans(),  # prefetched
        st.integers(min_value=0, max_value=WAYS),  # insertion position
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(st.just("invalidate"), addresses),
    st.tuples(st.just("evict"), addresses),
    st.tuples(
        st.just("flags"),
        addresses,
        st.sampled_from(["state", "spilled", "shared_region", "prefetched"]),
        st.sampled_from(STATES),
        st.booleans(),
    ),
    st.tuples(
        st.just("victim"),
        st.integers(min_value=0, max_value=SETS - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(
        st.just("take_victim"),
        st.integers(min_value=0, max_value=SETS - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    st.tuples(
        st.just("install"),
        addresses,
        st.sampled_from(STATES),
        st.booleans(),  # spilled
        st.booleans(),  # shared_region
        st.integers(min_value=0, max_value=WAYS),  # insertion position
    ),
)


def line_state(line) -> tuple:
    return (line.addr, line.state, line.spilled, line.shared_region, line.prefetched)


def full_state(array) -> list[list[tuple]]:
    """Everything a backend divergence could disturb, set by set."""
    return [[line_state(l) for l in array.set_lines(i)] for i in range(SETS)]


@settings(max_examples=examples(300))
@given(ops=st.lists(rich_operations, max_size=80))
def test_slot_and_dict_backends_lockstep(ops):
    """Identical op streams leave both backends in identical full state.

    The stream exercises the demand path the hierarchy actually drives:
    ``fill_fields`` with arbitrary states and flags, victim ``release``
    back into the slot backend's pool (so pooled-Line reuse is covered),
    in-place flag flips on resident lines, evictions and invalidations,
    and the miss path's ``take_victim`` (whose slot goes back to the
    pool) followed by ``install`` (which reuses it).
    """
    arrays = (SlotCacheArray(GEOMETRY), DictCacheArray(GEOMETRY))
    for op in ops:
        if op[0] == "lookup":
            _, addr, promote = op
            got = [a.lookup(addr, promote=promote) for a in arrays]
            assert (got[0] is None) == (got[1] is None)
        elif op[0] == "fill":
            _, addr, state, spilled, shared, pf, position, victim_position = op
            if arrays[0].contains(addr):
                continue
            if victim_position is not None and victim_position >= arrays[
                0
            ].occupancy(addr & arrays[0].set_mask):
                victim_position = None
            victims = [
                a.fill_fields(
                    addr,
                    state,
                    spilled,
                    shared,
                    pf,
                    position=position,
                    victim_position=victim_position,
                )
                for a in arrays
            ]
            assert (victims[0] is None) == (victims[1] is None)
            for a, victim in zip(arrays, victims):
                if victim is not None:
                    assert victim.addr == victims[0].addr
                    a.release(victim)  # exercise the slot pool
        elif op[0] == "invalidate":
            _, addr = op
            got = [a.invalidate(addr) for a in arrays]
            assert (got[0] is None) == (got[1] is None)
        elif op[0] == "evict":
            _, addr = op
            if not arrays[0].contains(addr):
                continue
            got = [a.evict(addr) for a in arrays]
            assert got[0].addr == got[1].addr
        elif op[0] == "flags":
            _, addr, field, state, flag = op
            lines = [a.probe(addr) for a in arrays]
            assert (lines[0] is None) == (lines[1] is None)
            for line in lines:
                if line is None:
                    continue
                setattr(line, field, state if field == "state" else flag)
        elif op[0] == "take_victim":
            _, set_idx, position = op
            if position is not None and position >= arrays[0].occupancy(set_idx):
                position = None
            got = [a.take_victim(set_idx, position) for a in arrays]
            assert (got[0] is None) == (got[1] is None)
            if got[0] is not None:
                assert line_state(got[0]) == line_state(got[1])
        elif op[0] == "install":
            _, addr, state, spilled, shared, position = op
            if arrays[0].contains(addr) or arrays[0].occupancy(addr & arrays[0].set_mask) >= WAYS:
                continue
            got = [
                a.install(addr, state, spilled, shared, position=position) for a in arrays
            ]
            assert line_state(got[0]) == line_state(got[1]) == (
                addr, state, spilled, shared, False
            )
            assert all(a.probe(addr) is line for a, line in zip(arrays, got))
        else:  # victim candidate peek
            _, set_idx, position = op
            if position is not None and position >= arrays[0].occupancy(set_idx):
                position = None
            got = [a.victim_candidate(set_idx, position) for a in arrays]
            assert (got[0] is None) == (got[1] is None)
            if got[0] is not None:
                assert got[0].addr == got[1].addr
        # Full-state equivalence after every operation: same stacks, same
        # MESI states, same flags, same occupancy, same index answers.
        assert full_state(arrays[0]) == full_state(arrays[1])
        for a in arrays:  # the live view reads what the snapshot copies
            for set_idx in range(SETS):
                assert list(a.stack_view(set_idx)) == a.set_lines(set_idx)
                assert list(reversed(a.stack_view(set_idx))) == a.set_lines(set_idx)[::-1]
        assert len(arrays[0]) == len(arrays[1])
        for set_idx in range(SETS):
            assert arrays[0].occupancy(set_idx) == arrays[1].occupancy(set_idx)
            for line in arrays[1].set_lines(set_idx):
                assert (
                    arrays[0].recency_position(line.addr)
                    == arrays[1].recency_position(line.addr)
                )


# --------------------------------------------------------------------- #
# The hierarchy's miss path: take_victim, then install, on every backend
# --------------------------------------------------------------------- #

#: Six lines each in sets 0 and 1: more lines than ways, so misses evict.
crowded_addresses = st.integers(min_value=0, max_value=11).map(
    lambda k: k % 2 + SETS * (k // 2)
)

#: (kind, address, insertion position, victim position, flag): most ops
#: miss; the flag is a miss's spilled bit or a lookup's promote, and a
#: prefetch is a miss whose line the prefetcher then marks.
miss_path_operations = st.tuples(
    st.sampled_from(("miss", "miss", "miss", "prefetch", "lookup", "invalidate")),
    crowded_addresses,
    st.integers(min_value=0, max_value=WAYS),
    st.one_of(st.none(), st.integers(min_value=0, max_value=WAYS - 1)),
    st.booleans(),
)


@settings(max_examples=examples(200))
@given(ops=st.lists(miss_path_operations, min_size=20, max_size=60))
def test_miss_path_lockstep(ops):
    """Misses on crowded sets fill them, so most misses evict: both
    backends against the oracle, and slot against dict in full state,
    with the slot pool recycling every victim and invalidated line."""
    arrays = (SlotCacheArray(GEOMETRY), DictCacheArray(GEOMETRY))
    oracle = OracleArray()
    for kind, addr, position, victim_position, flag in ops:
        if kind in ("miss", "prefetch"):
            if arrays[0].contains(addr):
                continue
            set_idx = addr & arrays[0].set_mask
            victims = [a.take_victim(set_idx, victim_position) for a in arrays]
            want = oracle.take_victim(set_idx, victim_position)
            assert all((v is None) == (want is None) for v in victims)
            if want is not None:
                assert line_state(victims[0]) == line_state(victims[1])
                assert victims[0].addr == want.addr
            state = Mesi.MODIFIED if flag else Mesi.EXCLUSIVE
            for a in arrays:
                line = a.install(addr, state, flag, flag, position=position)
                if kind == "prefetch":
                    line.prefetched = True
            oracle.install(Line(addr, state, flag), position)
        elif kind == "lookup":
            got = [a.lookup(addr, promote=flag) for a in arrays]
            want = oracle.lookup(addr, promote=flag)
            assert all((g is None) == (want is None) for g in got)
        else:
            got = [a.invalidate(addr) for a in arrays]
            want = oracle.invalidate(addr)
            assert all((g is None) == (want is None) for g in got)
            for a, line in zip(arrays, got):
                if line is not None:
                    a.release(line)
        assert full_state(arrays[0]) == full_state(arrays[1])
        assert stacks(arrays[0]) == oracle_stacks(oracle)
