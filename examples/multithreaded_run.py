#!/usr/bin/env python3
"""Multithreaded sensitivity: 4 threads sharing data on 512 kB LLCs.

Reproduces the Section 6.3 experiment shape on one kernel: with true
sharing, remote hits happen even without spilling, and spilled lines can
be useful to the receiver itself.

Run:  python examples/multithreaded_run.py
"""

from repro.api import Session
from repro.experiments import sec63_multithread


def main() -> None:
    session = Session()
    session.prewarm(sec63_multithread.cells())
    result = sec63_multithread.render(session)
    print(sec63_multithread.format_result(result))


if __name__ == "__main__":
    main()
