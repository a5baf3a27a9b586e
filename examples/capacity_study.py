#!/usr/bin/env python3
"""Capacity study: which benchmarks benefit from more ways? (Figure 1).

Sweeps enabled ways on the 2 MB/16-way cache for one donor, one streamer
and two takers, and prints the MPKI curves.  Donors and streamers are
flat; takers improve step by step as their thrash columns start fitting.

Run:  python examples/capacity_study.py
"""

from repro.analysis.waysweep import sweep, sweep_cells
from repro.api import Session
from repro.workloads.spec2006 import benchmark

CODES = [444, 433, 473, 471]  # namd, milc, astar, omnetpp


def main() -> None:
    ways = [2, 4, 8, 12, 16]
    print(f"{'benchmark':<16}" + "".join(f"{w:>8} ways" for w in ways) + f"{'full':>9}")
    # One batch: Session(jobs=4, cache_dir=...) would fan it out and
    # keep every cell on disk.
    specs = sweep_cells(CODES, ways, quota=120_000, warmup=60_000)
    session = Session()
    session.prewarm(specs)
    for code, points in sweep(session, specs).items():
        cells = "".join(f"{p.mpki:>12.2f}" for p in points[:-1])
        label = benchmark(code).label
        sensitive = "taker" if benchmark(code).capacity_sensitive else "donor/streamer"
        print(f"{label:<16}{cells}{points[-1].mpki:>9.2f}   ({sensitive})")


if __name__ == "__main__":
    main()
