"""Trace-generator primitives: coverage, reuse, mixture semantics."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generators import (
    LINE,
    Dwell,
    MixtureTrace,
    PointerChase,
    RandomRegion,
    SequentialLoop,
    Stream,
    ThrashColumn,
)


def test_sequential_loop_wraps():
    loop = SequentialLoop(base=0, ws_bytes=4 * LINE, pc=1)
    lines = [loop.next_access()[1] for _ in range(8)]
    assert lines == [0, 1, 2, 3, 0, 1, 2, 3]


def test_sequential_loop_stride():
    loop = SequentialLoop(base=0, ws_bytes=8 * LINE, pc=1, stride_lines=2)
    lines = [loop.next_access()[1] for _ in range(4)]
    assert lines == [0, 2, 4, 6]


def test_components_emit_line_addresses_from_a_byte_base():
    base = 3 << 32
    loop = SequentialLoop(base=base, ws_bytes=4 * LINE, pc=1)
    assert [loop.next_access()[1] for _ in range(2)] == [base // LINE, base // LINE + 1]
    stream = Stream(base=base, pc=1)
    assert stream.next_access()[1] == base // LINE


def test_stream_never_repeats_within_region():
    s = Stream(base=0, pc=1, region_bytes=1024 * LINE)
    addrs = [s.next_access()[1] for _ in range(500)]
    assert len(set(addrs)) == 500


def test_pointer_chase_full_period():
    chase = PointerChase(base=0, ws_bytes=16 * LINE, pc=1)
    addrs = [chase.next_access()[1] for _ in range(chase.lines)]
    assert len(set(addrs)) == chase.lines  # a permutation


def test_random_region_within_bounds():
    r = RandomRegion(base=1000 * LINE, region_bytes=10 * LINE, pc=1, rng=Random(0))
    for _ in range(100):
        _, line = r.next_access()
        assert 1000 <= line < 1010


def test_dwell_repeats():
    inner = SequentialLoop(base=0, ws_bytes=4 * LINE, pc=1)
    d = Dwell(inner, 3)
    lines = [d.next_access()[1] for _ in range(6)]
    assert lines == [0, 0, 0, 1, 1, 1]


def test_dwell_validates():
    with pytest.raises(ValueError):
        Dwell(Stream(0, 1), 0)


# ------------------------------------------------------------------ #
# ThrashColumn
# ------------------------------------------------------------------ #

def column_sets(col, sets_total, n):
    return [col.next_access()[1] % sets_total for _ in range(n)]


def test_column_covers_exactly_the_range():
    col = ThrashColumn(base=0, sets_total=16, covered_sets=4, set_offset=8, depth=3, pc=1)
    touched = set(column_sets(col, 16, 12 * 5))
    assert touched == {8, 9, 10, 11}


def test_column_per_set_depth_is_exact():
    col = ThrashColumn(base=0, sets_total=8, covered_sets=2, set_offset=0, depth=5, pc=1)
    lines_per_set: dict[int, set[int]] = {}
    for _ in range(2 * 5 * 3):  # several full cycles
        _, line = col.next_access()
        lines_per_set.setdefault(line % 8, set()).add(line)
    for lines in lines_per_set.values():
        assert len(lines) == 5


def test_column_cyclic_reuse():
    col = ThrashColumn(base=0, sets_total=4, covered_sets=4, set_offset=0, depth=2, pc=1)
    cycle = [col.next_access()[1] for _ in range(8)]
    again = [col.next_access()[1] for _ in range(8)]
    assert cycle == again


def test_column_footprint():
    col = ThrashColumn(base=0, sets_total=8, covered_sets=4, set_offset=0, depth=3, pc=1)
    assert col.ws_bytes == 4 * 3 * LINE


def test_column_validates():
    with pytest.raises(ValueError):
        ThrashColumn(0, 12, 4, 0, 2, 1)  # sets not power of two
    with pytest.raises(ValueError):
        ThrashColumn(0, 16, 3, 0, 2, 1)  # covered not power of two
    with pytest.raises(ValueError):
        ThrashColumn(0, 16, 8, 12, 2, 1)  # range overflows
    with pytest.raises(ValueError):
        ThrashColumn(7, 16, 4, 0, 2, 1)  # misaligned base


@settings(max_examples=40)
@given(
    sets_log=st.integers(min_value=2, max_value=6),
    covered_log=st.integers(min_value=0, max_value=4),
    depth=st.integers(min_value=1, max_value=8),
)
def test_column_reuse_distance_property(sets_log, covered_log, depth):
    """Each line recurs exactly every covered*depth accesses."""
    sets_total = 1 << sets_log
    covered = min(1 << covered_log, sets_total)
    col = ThrashColumn(0, sets_total, covered, 0, depth, pc=1)
    period = covered * depth
    first = [col.next_access()[1] for _ in range(period)]
    second = [col.next_access()[1] for _ in range(period)]
    assert first == second
    assert len(set(first)) == period


# ------------------------------------------------------------------ #
# MixtureTrace
# ------------------------------------------------------------------ #

def test_mixture_yields_trace_records():
    parts = [(1.0, SequentialLoop(0, 4 * LINE, pc=9))]
    trace = iter(MixtureTrace(parts, Random(0), gap_min=1, gap_max=3, write_fraction=0.5))
    for _ in range(20):
        gap, pc, line, is_write = next(trace)
        assert 1 <= gap <= 3
        assert pc == 9
        assert isinstance(is_write, bool)


def test_mixture_respects_weights():
    a = SequentialLoop(0, 4 * LINE, pc=1)
    b = SequentialLoop(1 << 20, 4 * LINE, pc=2)
    trace = iter(MixtureTrace([(0.9, a), (0.1, b)], Random(3), 1, 1, 0.0))
    pcs = [next(trace)[1] for _ in range(2000)]
    share_b = pcs.count(2) / len(pcs)
    assert 0.05 < share_b < 0.2


def test_mixture_validates():
    with pytest.raises(ValueError):
        MixtureTrace([], Random(0), 1, 1, 0.0)
    with pytest.raises(ValueError):
        MixtureTrace([(0.0, Stream(0, 1))], Random(0), 1, 1, 0.0)
