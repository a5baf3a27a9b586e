"""Additional generator coverage: scale invariance of ThrashColumn."""

from repro.sim.config import ScaleModel
from repro.workloads.generators import ThrashColumn
from repro.workloads.spec2006 import ComponentSpec


def per_set_depth(column, actual_sets, samples):
    lines_per_set = {}
    for _ in range(samples):
        _, line = column.next_access()
        lines_per_set.setdefault(line % actual_sets, set()).add(line)
    return max(len(v) for v in lines_per_set.values())


def test_column_depth_halves_on_doubled_cache():
    """A column built against the baseline set count spreads over a
    bigger cache's sets, halving its per-set depth — a fixed-size working
    set, exactly like a real program's."""
    base_sets = 64
    col = ThrashColumn(0, base_sets, base_sets, 0, depth=8, pc=1)
    samples = base_sets * 8 * 3
    assert per_set_depth(col, base_sets, samples) == 8
    col2 = ThrashColumn(0, base_sets, base_sets, 0, depth=8, pc=1)
    assert per_set_depth(col2, base_sets * 2, samples) == 4


def test_component_spec_column_builds_against_baseline_sets():
    from random import Random

    spec = ComponentSpec("column", 1.0, depth=4, set_fraction=0.5)
    comp = spec.build(0, 1, Random(0), ScaleModel())
    assert comp.sets_total == ScaleModel().l2().sets
    assert comp.covered_sets == ScaleModel().l2().sets // 2


def test_component_spec_rejects_unknown_kind():
    import pytest
    from random import Random

    spec = ComponentSpec("zigzag", 1.0)
    with pytest.raises(ValueError):
        spec.build(0, 1, Random(0), ScaleModel())
