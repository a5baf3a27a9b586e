"""Section 6.4: spill counts and hits per spilled line."""

from benchmarks.conftest import regenerate


def test_sec64_behavior(benchmark, session, emit):
    rows = regenerate(benchmark, session, emit, "sec64", "sec64_behavior")
    by_scheme = {r.scheme: r for r in rows}
    # The SSL-driven designs spill far more selectively than unconditional
    # ECC (the paper's 60-70% "fewer spills than the worst case").
    assert by_scheme["ascc"].total_spills < by_scheme["ecc"].total_spills / 2
    assert by_scheme["avgcc"].total_spills < by_scheme["ecc"].total_spills
    # hits-per-spill is only comparable within one service model: swap
    # schemes count one migration per spilled line, serve-in-place schemes
    # accumulate repeat remote hits on the same resident line.
    assert by_scheme["ascc"].hits_per_spill > by_scheme["avgcc"].hits_per_spill
