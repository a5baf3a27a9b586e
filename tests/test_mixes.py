"""Workload mixes and address-space isolation."""

import pytest

from repro.sim.config import ScaleModel
from repro.workloads.mixes import MIX2, MIX4, all_mixes, make_workloads, mix_name


def test_paper_mix_counts():
    assert len(MIX4) == 6
    assert len(MIX2) == 14


def test_table1_mixes_verbatim():
    assert (445, 401, 444, 456) in MIX4
    assert (433, 471, 473, 482) in MIX4


def test_fig10_named_pair_present():
    assert (429, 401) in MIX2


def test_mix_name():
    assert mix_name((445, 444, 456, 471)) == "445+444+456+471"


def test_all_mixes_dispatch():
    assert all_mixes(2) == MIX2
    assert all_mixes(4) == MIX4
    with pytest.raises(ValueError):
        all_mixes(3)


def test_workloads_have_disjoint_address_spaces():
    from random import Random

    workloads = make_workloads((429, 401), ScaleModel())
    seen: list[set[int]] = []
    for w in workloads:
        trace = iter(w.source(Random(1)))
        seen.append({next(trace)[2] >> 25 for _ in range(200)})  # 1 GB of lines
    assert not (seen[0] & seen[1])
