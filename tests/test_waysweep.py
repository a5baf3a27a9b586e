"""Way-sweep cells and the Figure 2 classification rule."""

from repro.analysis.waysweep import SweepPoint, classify_sets, sweep, sweep_cells
from repro.api import RunSpec, Session
from repro.execution.simulate import simulate_spec
from repro.sim.config import ScaleModel


def make_point(set_misses, instructions=1000, ways=4):
    return SweepPoint(
        code=473, ways=ways, full_assoc=False, mpki=0.0, cpi=0.0,
        set_misses=tuple(set_misses), instructions=instructions,
    )


def test_classification_favored_and_constant():
    prev = make_point([100, 100, 0, 50], ways=2)
    cur = make_point([50, 100, 0, 50], ways=4)
    c = classify_sets(prev, cur)
    assert c.favored_fraction == 0.25
    assert c.constant_fraction == 0.75


def test_sets_with_no_prior_misses_are_constant():
    prev = make_point([0, 0])
    cur = make_point([0, 0])
    c = classify_sets(prev, cur)
    assert c.favored_fraction == 0.0


def test_way_cell_smoke():
    cells = sweep_cells([444], [4], include_full_assoc=False, quota=6_000, warmup=2_000)
    ((point,),) = sweep(Session(), cells).values()
    assert point.ways == 4
    assert point.instructions >= 5_900  # the warmup-crossing step is unrecorded
    assert len(point.set_misses) == ScaleModel().sweep_l2().sets
    assert simulate_spec(RunSpec(mix=(444,), quota=2_000, warmup=0)).set_misses is None


def test_more_ways_do_not_hurt_sensitive_benchmark():
    cells = sweep_cells([473], [2, 16], quota=20_000, warmup=10_000)
    session = Session()
    session.prewarm(cells)
    ((few, many, full),) = sweep(session, cells).values()
    assert many.mpki <= few.mpki
    assert full.full_assoc and full.ways == ScaleModel().sweep_l2().lines
    assert len(full.set_misses) == 1
