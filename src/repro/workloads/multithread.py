"""Multithreaded workload models (Section 6.3 sensitivity study).

The paper runs SPLASH-2/PARSEC applications with 4 threads on 512 kB LLCs
to evaluate the policies "in environments where sets tend to have a more
uniform demand in all caches" and where "the spilling of lines can benefit
even the receiver caches, which may need the line in the near future".

Each kernel below gives every thread a mixture of

* a **shared** region all threads read (and occasionally write) — the
  source of S-state copies, remote hits on non-spilled lines, and the
  receiver-side reuse of spilled lines;
* a **private** slice per thread (thread-partitioned data);

with per-kernel shapes modelled on the named benchmarks: ``fft`` (strided
passes over a shared array), ``lu`` (blocked shared matrix with hot
blocks), ``streamcluster`` (read-mostly shared points, high reuse), and
``canneal`` (random shared accesses over a large net list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Iterator

from repro.cpu.timing import TimingModel
from repro.sim.config import ScaleModel
from repro.workloads.generators import (
    Dwell,
    MixtureTrace,
    RandomRegion,
    SequentialLoop,
    Stream,
)

KB = 1024
MB = 1024 * 1024

#: Shared data lives in a region common to all threads.
_SHARED_BASE = 1 << 40
#: Private slices are spaced per thread.
_PRIVATE_SPAN = 1 << 32


@dataclass(frozen=True)
class KernelSpec:
    """A multithreaded kernel: shared + private mixture per thread."""

    name: str
    base_cpi: float
    mlp: float
    shared_ws_bytes: int  # paper-scale
    shared_weight: float
    shared_kind: str  # "loop" | "random"
    shared_dwell: int
    private_ws_bytes: int
    private_dwell: int
    stream_weight: float = 0.0
    write_fraction: float = 0.2

    def instantiate(self, thread: int, scale: ScaleModel) -> "ThreadInstance":
        return ThreadInstance(spec=self, thread=thread, scale=scale)


@dataclass
class ThreadInstance:
    """One thread of a kernel, usable as an engine workload."""

    spec: KernelSpec
    thread: int
    scale: ScaleModel
    timing: TimingModel = field(init=False)

    def __post_init__(self) -> None:
        self.timing = TimingModel(self.spec.base_cpi, self.spec.mlp)

    @property
    def name(self) -> str:
        return f"{self.spec.name}#t{self.thread}"

    def trace(self, rng: Random) -> Iterator[tuple[int, int, int, bool]]:
        return iter(self.source(rng))

    def source(self, rng: Random) -> MixtureTrace:
        """The record stream as a column-block source (see :meth:`MixtureTrace.fill`)."""
        spec = self.spec
        shared_ws = self.scale.bytes(spec.shared_ws_bytes)
        pc_base = hash(spec.name) & 0xFFFF00
        if spec.shared_kind == "random":
            shared = RandomRegion(_SHARED_BASE, shared_ws, pc_base, rng)
        else:
            shared = SequentialLoop(_SHARED_BASE, shared_ws, pc_base)
        parts = [
            (spec.shared_weight, Dwell(shared, spec.shared_dwell)),
        ]
        private_base = _PRIVATE_SPAN * (self.thread + 1)
        private = SequentialLoop(
            private_base, self.scale.bytes(spec.private_ws_bytes), pc_base + 1
        )
        private_weight = 1.0 - spec.shared_weight - spec.stream_weight
        parts.append((private_weight, Dwell(private, spec.private_dwell)))
        if spec.stream_weight > 0:
            parts.append((spec.stream_weight, Stream(private_base + (1 << 30), pc_base + 2)))
        return MixtureTrace(parts, rng, 1, 3, spec.write_fraction)


#: The four kernels of the sensitivity study.
KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in [
        KernelSpec(
            name="fft",
            base_cpi=0.8, mlp=3.0,
            shared_ws_bytes=1536 * KB, shared_weight=0.35, shared_kind="loop",
            shared_dwell=2, private_ws_bytes=96 * KB, private_dwell=5,
        ),
        KernelSpec(
            name="lu",
            base_cpi=0.7, mlp=2.0,
            shared_ws_bytes=768 * KB, shared_weight=0.45, shared_kind="loop",
            shared_dwell=4, private_ws_bytes=64 * KB, private_dwell=6,
        ),
        KernelSpec(
            name="streamcluster",
            base_cpi=0.9, mlp=2.5,
            shared_ws_bytes=1024 * KB, shared_weight=0.55, shared_kind="loop",
            shared_dwell=3, private_ws_bytes=32 * KB, private_dwell=6,
            write_fraction=0.05,
        ),
        KernelSpec(
            name="canneal",
            base_cpi=1.0, mlp=1.8,
            shared_ws_bytes=6 * MB, shared_weight=0.25, shared_kind="random",
            shared_dwell=1, private_ws_bytes=48 * KB, private_dwell=6,
            stream_weight=0.02,
        ),
    ]
}


def kernel(name: str) -> KernelSpec:
    """Look up a kernel spec by name."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; have {sorted(KERNELS)}") from None


def make_threads(
    name: str, num_threads: int, scale: ScaleModel = ScaleModel()
) -> list[ThreadInstance]:
    """All threads of a kernel, one workload per core."""
    spec = kernel(name)
    return [spec.instantiate(t, scale) for t in range(num_threads)]
