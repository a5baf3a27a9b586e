"""Figure 2: favored vs constant set fractions for astar and milc."""

from benchmarks.conftest import regenerate


def test_fig2_sets(benchmark, session, emit):
    result = regenerate(benchmark, session, emit, "fig2", "fig2_sets")
    astar = result.classifications[473]
    milc = result.classifications[433]
    # astar has a meaningful favored population somewhere in the sweep;
    # milc is dominated by constant sets throughout.
    assert max(c.favored_fraction for c in astar) > 0.05
    assert all(c.constant_fraction > 0.5 for c in milc)
