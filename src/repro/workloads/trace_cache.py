"""Materialized trace layer: generate once, replay everywhere.

Synthetic benchmark traces are pure functions of ``(benchmark model,
address base, scale, per-core RNG seed)`` — yet the simulator used to
regenerate them record by record for every run, every benchmark repeat and
every batch worker, even when a sweep
(fig1 ways, tab4 sizes) replays the *same* stream against dozens of cache
configurations.  This module drains each stream once into compact buffers
and replays them at C speed afterwards:

* :class:`MaterializedTrace` — one per-core record stream held as two
  packed columns, 5 bytes per record: a code byte and the line address
  (``'I'``).  The code byte holds the gap (bits 7-3), the store flag
  (bit 2) and an index into the stream's PC table (bits 1-0): a stream
  has one PC per address component, at most :data:`MAX_PCS` of them.
  A stream whose line addresses can pass 2**32 (by its workload's
  ``line_limit``: a mix gives each core its own 4 GB span, so from the
  32nd core on) gets a ``'Q'`` line column instead, chosen when its
  buffer is created.  No value is ever truncated: a gap, flag or PC
  that does not fit the code byte and a line address that does not fit
  its column raise.  The engine replays a buffer through :meth:`replay`,
  a cursor that decodes each block with ``bytes.translate`` tables back
  into the ``(gaps, pcs, lines, writes)`` columns the generator hands
  out; reading past the end calls :meth:`MaterializedTrace.ensure`, the
  one overflow path.
* :class:`TraceCache` — the process-wide store: an in-process memo keyed
  by each stream's parameters and bounded by buffer bytes (about 54M
  records in the default 256 MB), and optional persistence as raw blocks
  beside a result cache (``<cache_dir>/_traces/``), each file named by
  the SHA-256 of its stream's memo key.  Only a process that reads or
  writes a trace directory computes that digest (and imports
  ``hashlib``, which maps OpenSSL).  Every process that simulates (the
  scheduler's own, each pool worker, each cluster lane) looks up memo,
  then the directory its cell names, then generates, and a buffer grows
  only as far as replay reads it; the batch worker entry point persists
  what it grew into that directory.
  ``.trc`` files hold one layout — a header naming the record count, the
  line typecode and the PC table, then the code and line blocks — and
  loads copy each block out of the payload in one step.  Files of an
  older format are unlinked the first time a trace directory is used.

Everything is bit-identical by construction: buffers hold exactly the
records the generator produced, the memo key covers every parameter
the stream depends on, and overflow continues the original source (or an
identically seeded rebuild, fast-forwarded past the prefix).

Workloads opt in by exposing ``trace_signature()`` (a stable description
of their deterministic stream — see
:meth:`repro.workloads.spec2006.BenchmarkInstance.trace_signature`),
``source(rng)``, a line-address block source of that stream,
``line_limit``, a bound on its line addresses (without one the line
column is wide), and ``spec``, whose ``gap`` range and ``pcs`` table
must fit the code byte.  Everything else keeps the generator path:
workloads without a signature (multithreaded kernels share one RNG
across components and hash process-dependent PC bases) and models whose
gaps or components do not fit, both decided before any generation.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
from array import array
from collections import OrderedDict
from pathlib import Path
from random import Random
from typing import Optional

#: Bump when the record layout or the digest inputs change.
TRACE_FORMAT_VERSION = 4

#: Serialized buffer magic ("Repro TRace v4"), then the record count,
#: the line typecode, the PC table's length and its (zero-padded)
#: entries; the code block and the line block follow.
_MAGIC = b"RTR4"
_HEADER = struct.Struct("<4sQ1sB4I")

#: Line column typecodes: a stream whose line addresses can reach 2**32
#: takes the wide one.
NARROW = "I"
WIDE = "Q"

#: The code byte's field bounds: gap in bits 7-3, store flag in bit 2,
#: PC-table index in bits 1-0.
MAX_GAP = 31
MAX_PCS = 4

#: Decode tables, code byte -> field.
_GAP = bytes(code >> 3 for code in range(256))
_WRITE = bytes(code >> 2 & 1 for code in range(256))
#: Encode tables, field -> its bits; the delete sets hold the values
#: that do not fit, so a shortened result flags them.
_GAP_BITS = bytes(value << 3 & 0xFF for value in range(256))
_WRITE_BITS = bytes(value << 2 & 0xFF for value in range(256))
_BAD_GAPS = bytes(range(MAX_GAP + 1, 256))
_BAD_FLAGS = bytes(range(2, 256))

#: Offset of a PC's low byte inside its native ``'I'`` item.
_LOW_BYTE = 0 if sys.byteorder == "little" else 3

#: Records requested from a source per ``fill`` while extending a buffer:
#: bounds the Python lists one step builds before they are packed.
_FILL_STEP = 4096

#: In-process memo bound on summed buffer bytes (about 54M records);
#: streams beyond it are dropped LRU-first.
_DEFAULT_MAX_BYTES = 256 << 20

#: Environment kill-switch (``REPRO_TRACE_CACHE=0`` disables the layer).
ENV_FLAG = "REPRO_TRACE_CACHE"


def env_enabled() -> bool:
    """Whether the trace cache is enabled by default in this process."""
    return os.environ.get(ENV_FLAG, "1") not in ("0", "false", "no", "off")


def _pc_table_fits(pcs) -> bool:
    """Whether ``pcs`` can be a stream's PC table: at most
    :data:`MAX_PCS` 32-bit entries with distinct low bytes (the index a
    PC packs to is read off its low byte)."""
    return (
        0 < len(pcs) <= MAX_PCS
        and all(0 <= pc < 1 << 32 for pc in pcs)
        and len({pc & 0xFF for pc in pcs}) == len(pcs)
    )


def sweep_stale_traces(trace_dir: os.PathLike) -> int:
    """Unlink ``*.trc`` files under ``trace_dir`` not in the current format.

    After a format bump no digest names an older file again (the format
    version is a digest input), so such files would only hold disk.
    Returns the number of files removed.
    """
    removed = 0
    for path in Path(trace_dir).glob("*.trc"):
        try:
            with open(path, "rb") as fh:
                current = fh.read(len(_MAGIC)) == _MAGIC
            if not current:
                path.unlink()
                removed += 1
        except OSError:
            continue  # raced with another sweeper or writer
    return removed


def _digest(key) -> str:
    """The SHA-256 a memo key names its ``.trc`` file by."""
    import hashlib  # here, not at module level: it maps OpenSSL

    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class MaterializedTrace:
    """One benchmark's per-core record stream, drained into two columns.

    ``key`` is the stream's memo key.  ``codes`` (a ``bytearray``) and
    ``lines`` (an ``array`` of typecode :data:`NARROW` or :data:`WIDE`)
    hold the stream prefix produced so far; ``pcs`` is the PC table the
    codes index; ``length`` is the number of complete records.  Replays read through :meth:`replay` and
    extend the buffer via :meth:`ensure`, which continues the original
    source (kept live in-process) or an identically seeded rebuild
    fast-forwarded past the prefix (after a disk round trip).
    """

    __slots__ = (
        "key",
        "pcs",
        "codes",
        "lines",
        "length",
        "records",
        "persisted",
        "_pc_index",
        "_pc_base",
        "_pc_tables",
        "_source",
        "_factory",
        "_lock",
    )

    def __init__(
        self,
        key,
        factory,
        pcs: tuple,
        codes: Optional[bytearray] = None,
        lines: Optional[array] = None,
        source=None,
        layout: str = NARROW,
    ) -> None:
        if not _pc_table_fits(pcs):
            raise ValueError(f"PC table {pcs!r} does not fit the code byte")
        self.key = key
        self.pcs = tuple(pcs)
        self.codes = bytearray() if codes is None else codes
        self.lines = array(layout) if lines is None else lines
        self.length = len(self.codes)
        #: Read-only record view: ``len()`` and ``(gap, pc, line, w)`` items.
        self.records = _Records(self)
        #: Trace directory -> buffer length already written there (skip
        #: rewrites that add nothing; a new directory gets its own copy).
        self.persisted: dict[Path, int] = {}
        # Packing: a PC's low byte -> its table index.
        index = bytearray(256)
        for i, pc in enumerate(self.pcs):
            index[pc & 0xFF] = i
        self._pc_index = bytes(index)
        # Unpacking: each PC is ``_pc_base`` (the first entry's native
        # bytes) with the byte offsets that differ between entries
        # translated from the code; unused indices decode as entry 0.
        raw = [pc.to_bytes(4, sys.byteorder) for pc in self.pcs]
        raw += raw[:1] * (MAX_PCS - len(raw))
        self._pc_base = raw[0]
        self._pc_tables = []
        for offset in range(4):
            table = bytes(raw[code & 3][offset] for code in range(256))
            if len(set(table)) > 1:
                self._pc_tables.append((offset, table))
        #: Block source positioned exactly at ``length`` records, or
        #: ``None`` when the buffer was loaded without one.
        self._source = source
        #: Zero-argument callable producing a fresh, identically seeded
        #: block source (used to rebuild ``_source`` after a load).  Its
        #: ``fill`` must return lists: they are packed from them.
        self._factory = factory
        #: Serialises extension: replays on several threads (in-process
        #: cells of schedulers sharing one process) share one buffer and
        #: one source.
        self._lock = threading.Lock()

    @property
    def digest(self) -> str:
        """The SHA-256 of :attr:`key`, which names the ``.trc`` file."""
        return _digest(self.key)

    @property
    def nbytes(self) -> int:
        """Bytes held by the materialized records (both columns)."""
        return len(self.codes) + len(self.lines) * self.lines.itemsize

    @property
    def layout(self) -> str:
        """The line column's typecode (:data:`NARROW` or :data:`WIDE`)."""
        return self.lines.typecode

    def _pc_column(self, codes) -> array:
        """The ``'I'`` PC column of a run of code bytes."""
        buf = bytearray(self._pc_base * len(codes))
        for offset, table in self._pc_tables:
            buf[offset::4] = codes.translate(table)
        pcs = array("I")
        pcs.frombytes(buf)
        return pcs

    def _pack(self, gaps: list, pcs: list, writes: list) -> bytes:
        """The code bytes of one generated block; raises on a record
        whose gap, store flag or PC does not fit."""
        n = len(gaps)
        gap_bits = bytes(gaps).translate(_GAP_BITS, _BAD_GAPS)
        write_bits = bytes(writes).translate(_WRITE_BITS, _BAD_FLAGS)
        if len(gap_bits) != n or len(write_bits) != n:
            raise ValueError("a gap or store flag does not fit the code byte")
        pc_column = array("I", pcs)
        index = pc_column.tobytes()[_LOW_BYTE::4].translate(self._pc_index)
        # The three fields occupy disjoint bits: OR them as integers.
        codes = (
            int.from_bytes(gap_bits, "little")
            | int.from_bytes(write_bits, "little")
            | int.from_bytes(index, "little")
        ).to_bytes(n, "little")
        if self._pc_column(codes) != pc_column:
            raise ValueError("a PC is not in the stream's PC table")
        return codes

    def ensure(self, n: int) -> None:
        """Extend the buffer to ``n`` records (fewer if the source ends).

        The only way a buffer grows.  Readers never take the lock: columns
        only ever grow at the end, and ``length`` is raised only after both
        hold the new records.
        """
        if self.length >= n:
            return
        with self._lock:
            source = self._source
            if source is None:
                # Rebuild the source and fast-forward past the prefix: the
                # stream is deterministic, so skipping ``length`` records
                # resumes exactly where the buffer ends.
                source = self._factory()
                skip = self.length
                while skip > 0:
                    skipped = len(source.fill(min(skip, _FILL_STEP))[0])
                    if not skipped:
                        break
                    skip -= skipped
                self._source = source
            while self.length < n:
                want = min(n - self.length, _FILL_STEP)
                gaps, pcs, lines, writes = source.fill(want)
                codes = self._pack(gaps, pcs, writes)
                self.lines.fromlist(lines)
                self.codes += codes
                got = len(codes)
                self.length += got
                if got < want:  # finite source drained
                    break

    def replay(self) -> "_Replay":
        """An engine-facing block source over this buffer, from record 0."""
        return _Replay(self)

    # ------------------------------------------------------------------ #
    # Serialization (the disk layer's file format)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize the buffer: header + the code and line blocks."""
        with self._lock:
            pcs = self.pcs + (0,) * (MAX_PCS - len(self.pcs))
            header = _HEADER.pack(
                _MAGIC, self.length, self.layout.encode("ascii"), len(self.pcs), *pcs
            )
            return header + self.codes + self.lines.tobytes()

    @staticmethod
    def decode(payload) -> tuple[tuple, bytearray, array]:
        """Parse :meth:`to_bytes` output into ``(pcs, codes, lines)``."""
        magic, count, layout, npcs, *pcs = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad trace buffer magic {magic!r}")
        layout = layout.decode("ascii", "replace")
        if layout not in (NARROW, WIDE):
            raise ValueError(f"bad trace buffer layout {layout!r}")
        lines = array(layout)
        start = _HEADER.size
        stop = start + count
        if stop + count * lines.itemsize > len(payload):
            raise ValueError("truncated trace buffer")
        with memoryview(payload) as view:
            codes = bytearray(view[start:stop])
            lines.frombytes(view[stop : stop + count * lines.itemsize])
        return tuple(pcs[:npcs]), codes, lines


class _Replay:
    """A cursor handing out one buffer's records as column blocks.

    gap, line and write come out as lists (read for every record); pc
    is an ``'I'`` array, indexed only on an L1 miss.
    """

    __slots__ = ("trace", "pos")

    def __init__(self, trace: MaterializedTrace) -> None:
        self.trace = trace
        self.pos = 0

    def fill(self, n: int) -> tuple:
        trace = self.trace
        start = self.pos
        stop = start + n
        if stop > trace.length:
            trace.ensure(stop)
            stop = min(stop, trace.length)
        self.pos = stop
        codes = trace.codes[start:stop]
        return (
            list(codes.translate(_GAP)),
            trace._pc_column(codes),
            trace.lines[start:stop].tolist(),
            list(codes.translate(_WRITE)),
        )


class _Records:
    """Tuple view of a buffer's materialized prefix (tests, inspection)."""

    __slots__ = ("_trace",)

    def __init__(self, trace: MaterializedTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.length

    def __getitem__(self, index):
        trace = self._trace
        length = trace.length
        codes = trace.codes[:length][index]
        lines = trace.lines[:length][index]
        pcs = trace.pcs
        if isinstance(index, slice):
            return [
                (code >> 3, pcs[code & 3], line, bool(code & 4))
                for code, line in zip(codes, lines)
            ]
        return codes >> 3, pcs[codes & 3], lines, bool(codes & 4)


class _CachedTraceWorkload:
    """A workload whose stream replays a materialized buffer.

    Proxies ``name``/``timing`` (all the engine reads) and ignores the
    engine's RNG: the buffer was produced by a source seeded with the
    identical ``Random((seed << 8) + core_id)``, so replay is bit-identical
    to handing that RNG to the raw workload.
    """

    __slots__ = ("inner", "materialized", "name", "timing")

    def __init__(self, inner, materialized: MaterializedTrace) -> None:
        self.inner = inner
        self.materialized = materialized
        self.name = inner.name
        self.timing = inner.timing

    def source(self, rng: Random) -> _Replay:
        return self.materialized.replay()


class TraceCache:
    """Process-wide store of materialized traces.

    Layers, consulted in order: in-process memo, the on-disk store under
    ``<cache_dir>/_traces/`` of the ``cache_dir`` a lookup names.  A miss
    in both materializes from the workload's block source.  The memo
    holds at most ``max_bytes`` of buffer data (checked whenever a stream
    joins it); the least recently used streams go first, the newest
    always stays.
    """

    def __init__(self, max_bytes: int = _DEFAULT_MAX_BYTES) -> None:
        self._memo: OrderedDict[str, MaterializedTrace] = OrderedDict()
        self._max_bytes = max_bytes
        #: Trace directories already swept of older-format files.
        self._swept: set[Path] = set()
        self.stats = {
            "memo_hits": 0,
            "disk_hits": 0,
            "materialized": 0,
        }

    # ------------------------------------------------------------------ #
    # Lookup / materialization
    # ------------------------------------------------------------------ #

    @staticmethod
    def key_for(signature, core_seed: int) -> tuple:
        """Memo key of one per-core stream.

        ``signature`` is the workload's stable stream description;
        ``core_seed`` is the exact engine RNG seed ``(seed << 8) + core``.
        A run's quota and warmup stay out: the stream does not depend on
        them, and replay extends a buffer on demand, so runs of any
        length share one buffer.
        """
        return (TRACE_FORMAT_VERSION, signature, core_seed)

    @classmethod
    def digest_for(cls, signature, core_seed: int) -> str:
        """Content address of one per-core stream: its ``.trc`` name."""
        return _digest(cls.key_for(signature, core_seed))

    @staticmethod
    def _pc_table(workload) -> Optional[tuple]:
        """The PC table of ``workload``'s stream, or ``None`` when the
        stream keeps the generator path: no trace signature, or a model
        whose gap range or components do not fit the code byte."""
        spec = getattr(workload, "spec", None)
        if getattr(workload, "trace_signature", None) is None or spec is None:
            return None
        gap_min, gap_max = spec.gap
        pcs = spec.pcs
        if gap_min < 0 or gap_max > MAX_GAP or not _pc_table_fits(pcs):
            return None
        return pcs

    def get(
        self,
        workload,
        core_id: int,
        seed: int,
        cache_dir: Optional[os.PathLike] = None,
    ) -> Optional[MaterializedTrace]:
        """The materialized stream for one core, or ``None`` if the
        workload keeps the generator path (see :meth:`_pc_table`).

        A miss in the memo reads ``<cache_dir>/_traces/`` when
        ``cache_dir`` is set.
        """
        pcs = self._pc_table(workload)
        if pcs is None:
            return None
        core_seed = (seed << 8) + core_id
        key = self.key_for(workload.trace_signature(), core_seed)
        memo = self._memo
        entry = memo.get(key)
        if entry is not None:
            memo.move_to_end(key)
            self.stats["memo_hits"] += 1
            return entry
        factory = self._factory(workload, core_seed)
        source = None
        loaded = None if cache_dir is None else self._load_disk(cache_dir, _digest(key), pcs)
        if loaded is None:
            self.stats["materialized"] += 1
            source = factory()
            codes = lines = None
        else:
            codes, lines = loaded
        entry = MaterializedTrace(
            key,
            factory,
            pcs,
            codes=codes,
            lines=lines,
            source=source,
            layout=self._layout(workload),
        )
        if loaded is not None:
            entry.persisted[self._trace_dir(cache_dir)] = entry.length
        memo[key] = entry
        total = sum(e.nbytes for e in memo.values())
        while total > self._max_bytes and len(memo) > 1:
            total -= memo.popitem(last=False)[1].nbytes
        return entry

    @staticmethod
    def _factory(workload, core_seed: int):
        return lambda: workload.source(Random(core_seed))

    @staticmethod
    def _layout(workload) -> str:
        """Narrow lines unless the stream's line addresses may need 64 bits."""
        limit = getattr(workload, "line_limit", None)
        return NARROW if limit is not None and limit <= 1 << 32 else WIDE

    def materialize_for_run(
        self,
        workloads: list,
        seed: int,
        cache_dir: Optional[os.PathLike] = None,
    ) -> list:
        """The engine workloads of one run, each replaying its buffer.

        Position in the list is the engine core id.  A buffer grows only
        as replay reads past its end, so a run generates exactly the
        records it consumes that no earlier run did.  Workloads that keep
        the generator path pass through untouched.
        """
        wrapped = []
        for core_id, workload in enumerate(workloads):
            entry = self.get(workload, core_id, seed, cache_dir)
            wrapped.append(workload if entry is None else _CachedTraceWorkload(workload, entry))
        return wrapped

    # ------------------------------------------------------------------ #
    # Disk layer
    # ------------------------------------------------------------------ #

    def _trace_dir(self, cache_dir: os.PathLike) -> Path:
        """``<cache_dir>/_traces``, swept of older formats on first use."""
        trace_dir = Path(cache_dir) / "_traces"
        if trace_dir not in self._swept:
            self._swept.add(trace_dir)
            sweep_stale_traces(trace_dir)
        return trace_dir

    def _load_disk(self, cache_dir: os.PathLike, digest: str, pcs: tuple) -> Optional[tuple]:
        path = self._trace_dir(cache_dir) / f"{digest}.trc"
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            stored, codes, lines = MaterializedTrace.decode(payload)
            if stored != pcs:
                raise ValueError("PC table differs from the model's")
        except (ValueError, struct.error):
            # A torn or foreign file is not worth failing a run over; the
            # stream regenerates and the file is rewritten by persist().
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats["disk_hits"] += 1
        return codes, lines

    def persist(self, cache_dir: Optional[os.PathLike]) -> int:
        """Write grown buffers under ``<cache_dir>/_traces``; returns files
        written (none when ``cache_dir`` is ``None``).

        Files are written via a same-directory temp name + atomic rename,
        mirroring the result cache's torn-write discipline.
        """
        if cache_dir is None:
            return 0
        trace_dir = self._trace_dir(cache_dir)
        written = 0
        # Snapshot: another scheduler thread sharing the process-global
        # cache may be materializing (inserting) concurrently.
        for entry in list(self._memo.values()):
            length = entry.length
            if not length or entry.persisted.get(trace_dir) == length:
                continue
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{entry.digest}.trc"
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(entry.to_bytes())
            os.replace(tmp, path)
            entry.persisted[trace_dir] = length
            written += 1
        return written

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop the memo (tests)."""
        self._memo.clear()


#: The process-global cache ``simulate_spec`` and the batch worker share.
_GLOBAL: Optional[TraceCache] = None


def get_trace_cache() -> TraceCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = TraceCache()
    return _GLOBAL


def reset_trace_cache() -> None:
    """Tests: forget the global cache."""
    global _GLOBAL
    _GLOBAL = None
