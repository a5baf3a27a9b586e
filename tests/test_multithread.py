"""Multithreaded kernels share data across threads."""

import os
import pathlib
import subprocess
import sys
from random import Random

import pytest

from repro.workloads.generators import LINE
from repro.workloads.multithread import KERNELS, kernel, make_threads

SHARED_LINE = (1 << 40) // LINE


def test_four_kernels():
    assert len(KERNELS) == 4
    with pytest.raises(KeyError):
        kernel("raytrace")


def test_threads_share_the_shared_region():
    threads = make_threads("lu", 4)
    shared_lines = []
    for t in threads:
        trace = iter(t.source(Random(0)))
        lines = set()
        for _ in range(2000):
            _, _, line, _ = next(trace)
            if line >= SHARED_LINE:
                lines.add(line)
        shared_lines.append(lines)
    common = set.intersection(*shared_lines)
    assert common  # genuine sharing


def test_private_slices_disjoint():
    threads = make_threads("fft", 2)
    privates = []
    for t in threads:
        trace = iter(t.source(Random(0)))
        lines = set()
        for _ in range(2000):
            _, _, line, _ = next(trace)
            if line < SHARED_LINE:
                lines.add(line // ((1 << 32) // LINE))  # per-thread 4 GB slice
        privates.append(lines)
    assert not (privates[0] & privates[1])


def test_thread_names():
    threads = make_threads("canneal", 2)
    assert threads[0].name == "canneal#t0"
    assert threads[1].name == "canneal#t1"


def test_kernel_trace_records_do_not_depend_on_the_string_hash_seed():
    """Two interpreters with different ``PYTHONHASHSEED`` emit the same
    kernel records, PCs included."""
    code = (
        "from itertools import islice; from random import Random\n"
        "from repro.workloads.multithread import make_threads\n"
        "for t in make_threads('lu', 2):\n"
        "    print(list(islice(iter(t.source(Random(3))), 200)))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]
