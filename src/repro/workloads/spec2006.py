"""Synthetic models of the paper's 13 SPEC CPU2006 benchmarks.

The paper characterises each benchmark by its L2 MPKI and CPI on the
baseline machine (Table 3) and by its sensitivity to cache capacity
(Figure 1).  Since SPEC reference traces are unavailable here, each
benchmark is modelled as a weighted mixture of the primitive patterns in
:mod:`repro.workloads.generators`, designed to reproduce the four
properties every studied policy reacts to:

* **MPKI** — each model's miss components are weighted so the baseline
  L2 MPKI lands on Table 3 (calibration tests enforce a band).
* **CPI** — via the analytic timing model (base CPI + MLP).
* **Capacity sensitivity** (Figure 1) — *sensitive* benchmarks carry
  :class:`~repro.workloads.generators.ThrashColumn` components whose
  per-set depth exceeds the baseline's 8 ways but fits once extra ways
  arrive (more enabled ways, spill-donated remote space, or BIP/SABIP
  thrash protection), so their misses are *recoverable*; *insensitive*
  benchmarks miss through streaming, which nothing recovers.
* **Non-uniform set pressure** (Figure 2) — columns cover chosen set
  ranges: a benchmark's saturated (spiller) sets and its hit-dominated
  (receiver/neutral) sets are different sets, which is exactly the
  structure set-granular management exploits and cache-granular schemes
  (DSR/ECC) cannot.

Column shapes below are stated against the paper's 4096-set baseline LLC
and scale with :class:`~repro.sim.config.ScaleModel`; ``ws_bytes`` values
for the generic primitives are paper-scale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.cpu.timing import TimingModel
from repro.sim.config import ScaleModel
from repro.workloads.generators import (
    LINE,
    AddressComponent,
    Dwell,
    MixtureTrace,
    PointerChase,
    RandomRegion,
    SequentialLoop,
    Stream,
    ThrashColumn,
)

KB = 1024
MB = 1024 * 1024

#: Address-space span reserved per component inside a benchmark instance.
_COMPONENT_SPAN = 1 << 28


@dataclass(frozen=True)
class ComponentSpec:
    """One mixture component of a benchmark model.

    ``kind`` selects the primitive:

    * ``"column"`` — :class:`ThrashColumn`; uses ``depth`` (lines per set),
      ``set_fraction`` and ``set_offset`` (fractions of the baseline sets).
    * ``"loop"`` / ``"chase"`` / ``"random"`` — generic primitives sized by
      ``ws_bytes`` (paper-scale).
    * ``"stream"`` — pure streaming.
    """

    kind: str
    weight: float
    ws_bytes: int = 0
    depth: int = 0
    set_fraction: float = 1.0
    set_offset: float = 0.0
    dwell: int = 1
    stride_lines: int = 1

    def build(
        self, base: int, pc: int, rng: Random, scale: ScaleModel
    ) -> AddressComponent:
        comp: AddressComponent
        if self.kind == "column":
            sets = scale.l2().sets
            covered = max(1, int(sets * self.set_fraction))
            offset = int(sets * self.set_offset)
            comp = ThrashColumn(base, sets, covered, offset, self.depth, pc)
        elif self.kind == "loop":
            comp = SequentialLoop(
                base, scale.bytes(self.ws_bytes), pc, stride_lines=self.stride_lines
            )
        elif self.kind == "chase":
            comp = PointerChase(base, scale.bytes(self.ws_bytes), pc)
        elif self.kind == "stream":
            comp = Stream(base, pc)
        elif self.kind == "random":
            comp = RandomRegion(base, scale.bytes(self.ws_bytes), pc, rng)
        else:
            raise ValueError(f"unknown component kind: {self.kind!r}")
        if self.dwell > 1:
            comp = Dwell(comp, self.dwell)
        return comp


@dataclass(frozen=True)
class BenchmarkSpec:
    """A SPEC CPU2006 benchmark model plus its Table 3 reference point."""

    code: int
    name: str
    table3_mpki: float
    table3_cpi: float
    base_cpi: float
    mlp: float
    capacity_sensitive: bool
    components: tuple[ComponentSpec, ...]
    gap: tuple[int, int] = (1, 3)
    write_fraction: float = 0.3

    @property
    def label(self) -> str:
        return f"{self.code}.{self.name}"

    def instantiate(self, scale: ScaleModel, base: int) -> "BenchmarkInstance":
        return BenchmarkInstance(spec=self, scale=scale, base=base)


@dataclass
class BenchmarkInstance:
    """A benchmark bound to a scale and an address-space base."""

    spec: BenchmarkSpec
    scale: ScaleModel
    base: int
    timing: TimingModel = field(init=False)

    def __post_init__(self) -> None:
        self.timing = TimingModel(self.spec.base_cpi, self.spec.mlp)

    @property
    def name(self) -> str:
        return self.spec.label

    def trace_signature(self) -> tuple:
        """Stable description of the deterministic record stream.

        ``source(rng)`` is a pure function of this tuple plus the RNG seed:
        the frozen spec fixes every component shape and mixture weight,
        ``scale.scale`` fixes all derived geometry, and ``base`` fixes the
        address layout.  The trace cache content-addresses buffers by it.
        """
        return (repr(self.spec), self.scale.scale, self.base)

    @property
    def line_limit(self) -> int:
        """One past the highest line address the stream can emit.

        Component ``i`` lives in ``[base + i * span, base + (i + 1) * span)``;
        the trace cache sizes its line column by this bound.
        """
        return (self.base + len(self.spec.components) * _COMPONENT_SPAN) // LINE

    def source(self, rng: Random) -> MixtureTrace:
        """The record stream as a column-block source of line addresses
        (see :meth:`MixtureTrace.fill`)."""
        parts = []
        for i, comp_spec in enumerate(self.spec.components):
            comp_base = self.base + i * _COMPONENT_SPAN
            pc = (self.spec.code << 8) + i
            parts.append(
                (comp_spec.weight, comp_spec.build(comp_base, pc, rng, self.scale))
            )
        gap_min, gap_max = self.spec.gap
        return MixtureTrace(parts, rng, gap_min, gap_max, self.spec.write_fraction)


def _spec(
    code: int,
    name: str,
    mpki: float,
    cpi: float,
    base_cpi: float,
    mlp: float,
    sensitive: bool,
    components: list[ComponentSpec],
) -> BenchmarkSpec:
    return BenchmarkSpec(
        code=code,
        name=name,
        table3_mpki=mpki,
        table3_cpi=cpi,
        base_cpi=base_cpi,
        mlp=mlp,
        capacity_sensitive=sensitive,
        components=tuple(components),
    )


def _column(
    weight: float, depth: int, fraction: float, offset: float = 0.0, dwell: int = 1
) -> ComponentSpec:
    return ComponentSpec(
        "column", weight, depth=depth, set_fraction=fraction, set_offset=offset,
        dwell=dwell,
    )


#: The 13 benchmark models, keyed by SPEC code (paper Table 3).
#:
#: Donors hold shallow columns (depth well below 8 ways) over all sets:
#: their sets hit constantly, keep a low SSL, and can receive.  Streamers
#: miss through ``stream`` components — unrecoverable misses.  Takers hold
#: deep columns (depth 9-14) over part of the set space: those sets
#: saturate and spill, while their shallow columns elsewhere stay
#: receiver/neutral, giving every benchmark the mixed per-set profile of
#: Figure 2.  Columns deeper than ~14 stay miss-bound even with donated
#: space, bounding what cooperation can recover (mcf).
BENCHMARKS: dict[int, BenchmarkSpec] = {
    spec.code: spec
    for spec in [
        # --- donors (Figure 1 upper row: can provide capacity) --------- #
        _spec(
            444, "namd", 1.0, 0.76, 0.45, 1.5, False,
            [
                _column(0.997, depth=2, fraction=1.0, dwell=8),
                ComponentSpec("stream", 0.003, dwell=1),
            ],
        ),
        _spec(
            445, "gobmk", 1.1, 1.34, 1.05, 1.6, False,
            [
                _column(0.996, depth=3, fraction=1.0, dwell=7),
                ComponentSpec("random", 0.004, ws_bytes=8 * MB, dwell=1),
            ],
        ),
        _spec(
            458, "sjeng", 1.36, 1.6, 1.15, 1.8, False,
            [
                _column(0.996, depth=4, fraction=1.0, dwell=6),
                ComponentSpec("random", 0.004, ws_bytes=16 * MB, dwell=1),
            ],
        ),
        # --- streamers (insensitive, high MPKI) ------------------------ #
        _spec(
            433, "milc", 33.1, 4.28, 0.6, 4.6, False,
            [
                ComponentSpec("stream", 0.2, dwell=2),
                # Hot data visible at the L2: half of milc's sets hit
                # constantly and can donate ways (Figure 1: milc "can offer
                # cache capacity"); the other half only see stream misses.
                _column(0.8, depth=2, fraction=0.5, dwell=4),
            ],
        ),
        _spec(
            462, "libquantum", 22.4, 4.3, 0.65, 2.9, False,
            [
                ComponentSpec("stream", 0.135, dwell=2),
                _column(0.865, depth=1, fraction=0.25, dwell=4),
            ],
        ),
        _spec(
            470, "lbm", 29.0, 2.0, 0.65, 10.0, False,
            [
                ComponentSpec("stream", 0.175, dwell=2),
                _column(0.825, depth=2, fraction=0.25, dwell=4),
            ],
        ),
        _spec(
            482, "sphinx3", 16.1, 4.37, 1.0, 2.4, False,
            [
                ComponentSpec("stream", 0.097, dwell=2),
                _column(0.903, depth=6, fraction=0.5, dwell=4),
            ],
        ),
        # --- takers (Figure 1 lower row: capacity-sensitive) ----------- #
        _spec(
            429, "mcf", 40.1, 10.4, 0.8, 2.1, True,
            [
                ComponentSpec("random", 0.069, ws_bytes=12 * MB, dwell=1),
                _column(0.054, depth=12, fraction=0.125),
                _column(0.877, depth=2, fraction=1 / 32, offset=0.75, dwell=8),
            ],
        ),
        _spec(
            473, "astar", 7.3, 3.5, 0.9, 1.6, True,
            [
                _column(0.0105, depth=11, fraction=0.0625),
                ComponentSpec("random", 0.0125, ws_bytes=4 * MB, dwell=1),
                _column(0.4, depth=3, fraction=0.5, offset=0.25, dwell=5),
                _column(0.577, depth=2, fraction=0.25, offset=0.75, dwell=6),
            ],
        ),
        _spec(
            471, "omnetpp", 15.2, 2.0, 0.65, 5.4, True,
            [
                _column(0.0205, depth=13, fraction=0.0625, offset=0.125),
                ComponentSpec("random", 0.0265, ws_bytes=6 * MB, dwell=1),
                # Hot data mostly L1-resident: omnetpp's L2 stream is
                # miss-dominated, so cache-granular metrics also see it.
                _column(0.953, depth=2, fraction=1 / 32, offset=0.75, dwell=8),
            ],
        ),
        _spec(
            450, "soplex", 3.6, 1.0, 0.35, 3.0, True,
            [
                _column(0.0055, depth=10, fraction=0.03125, offset=0.25),
                ComponentSpec("random", 0.0055, ws_bytes=4 * MB, dwell=1),
                _column(0.489, depth=4, fraction=0.5, offset=0.25, dwell=5),
                _column(0.5, depth=2, fraction=0.25, offset=0.75, dwell=6),
            ],
        ),
        _spec(
            401, "bzip2", 2.7, 1.8, 1.2, 2.6, True,
            [
                _column(0.004, depth=9, fraction=0.03125, offset=0.3125),
                ComponentSpec("random", 0.004, ws_bytes=4 * MB, dwell=1),
                _column(0.4, depth=3, fraction=0.5, offset=0.25, dwell=5),
                _column(0.592, depth=2, fraction=0.25, offset=0.75, dwell=6),
            ],
        ),
        _spec(
            456, "hmmer", 3.4, 1.3, 0.7, 3.4, True,
            [
                _column(0.005, depth=10, fraction=0.03125, offset=0.375),
                ComponentSpec("random", 0.005, ws_bytes=4 * MB, dwell=1),
                _column(0.49, depth=4, fraction=0.25, offset=0.5, dwell=5),
                _column(0.5, depth=2, fraction=0.25, offset=0.75, dwell=6),
            ],
        ),
    ]
}


def benchmark(code: int) -> BenchmarkSpec:
    """Look up a benchmark model by its SPEC code (e.g. 429 for mcf)."""
    try:
        return BENCHMARKS[code]
    except KeyError:
        raise KeyError(f"no model for SPEC code {code}") from None


def all_codes() -> list[int]:
    """All SPEC codes with a model, sorted."""
    return sorted(BENCHMARKS)


#: The 8 benchmarks shown in Figure 1 (upper row: insensitive, lower:
#: sensitive), in display order.
FIGURE1_CODES = [433, 482, 444, 462, 429, 471, 473, 450]
