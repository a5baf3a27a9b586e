"""Materialized trace layer: generate once, replay everywhere.

Synthetic benchmark traces are pure functions of ``(benchmark model,
address base, scale, per-core RNG seed)`` — yet the simulator used to
regenerate them record by record for every run, every benchmark repeat and
every batch worker, even when a sweep
(fig1 ways, tab4 sizes) replays the *same* stream against dozens of cache
configurations.  This module drains each stream once into compact column
buffers and replays them at C speed afterwards:

* :class:`MaterializedTrace` — one per-core record stream held as four
  packed ``array`` columns (gap ``'B'``, pc ``'I'``, line address ``'I'``,
  write ``'B'``: 10 bytes per record) plus the block source that extends
  them on demand.  A stream whose line addresses can pass 2**32 (by its
  workload's ``line_limit``: a mix gives each core its own 4 GB span, so
  from the 32nd core on) gets a ``'Q'`` line column instead, chosen when
  its buffer is created.  No value ever wraps: ``array`` raises
  ``OverflowError`` on one that does not fit.  The engine replays a
  buffer through :meth:`replay`, a cursor that hands out column slices;
  reading past the end calls :meth:`MaterializedTrace.ensure`, the one
  overflow path.
* :class:`TraceCache` — the process-wide store: an in-process memo keyed
  by content digest and bounded by buffer bytes, optional persistence as
  raw column blocks beside the result cache (``<cache_dir>/_traces/``),
  and ``multiprocessing.shared_memory`` export/import so pool workers
  attach a parent's buffers instead of regenerating per worker.  Memo,
  ``.trc`` files and segments share one layout — a header naming the
  record count and the four column typecodes, then the raw columns — and
  loads copy each column out of the payload with one ``frombytes``.
  Files of an older format are unlinked the first time a trace directory
  is used.

Everything is bit-identical by construction: buffers hold exactly the
records the generator produced, the content digest covers every parameter
the stream depends on, and overflow continues the original source (or an
identically seeded rebuild, fast-forwarded past the prefix).

Workloads opt in by exposing ``trace_signature()`` (a stable description
of their deterministic stream — see
:meth:`repro.workloads.spec2006.BenchmarkInstance.trace_signature`),
``source(rng)``, a line-address block source of that stream, and
``line_limit``, a bound on its line addresses (without one the line
column is wide); workloads without a signature (multithreaded kernels
share one RNG across components and hash process-dependent PC bases) keep
the generator path.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from array import array
from collections import OrderedDict
from pathlib import Path
from random import Random
from typing import Optional

#: Bump when the record layout or the digest inputs change.
TRACE_FORMAT_VERSION = 3

#: Serialized buffer magic ("Repro TRace v3"), then the record count and
#: the four column typecodes; the raw column blocks follow.
_MAGIC = b"RTR3"
_HEADER = struct.Struct("<4sQ4s")

#: Column typecodes, in buffer and file order: gap, pc, line, write.  A
#: stream whose line addresses can reach 2**32 takes the wide layout.
NARROW = "BIIB"
WIDE = "BIQB"
_LAYOUTS = (NARROW, WIDE)

#: Records requested from a source per ``fill`` while extending a buffer:
#: bounds the Python lists one step builds before they are packed.
_FILL_STEP = 16_384

#: In-process memo bound on summed column bytes (about 27M records);
#: streams beyond it are dropped LRU-first.
_DEFAULT_MAX_BYTES = 256 << 20

#: Environment kill-switch (``REPRO_TRACE_CACHE=0`` disables the layer).
ENV_FLAG = "REPRO_TRACE_CACHE"

#: Prefix of exported shared-memory segment names.  Embedding the
#: exporter's pid (``repro_trc_<pid>_<seq>``) lets a later process tell
#: an orphan (exporter dead, segment stranded in /dev/shm) from a live
#: export and sweep it — see :func:`sweep_orphan_shared`.
SHM_PREFIX = "repro_trc"


def env_enabled() -> bool:
    """Whether the trace cache is enabled by default in this process."""
    return os.environ.get(ENV_FLAG, "1") not in ("0", "false", "no", "off")


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (any owner)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def sweep_orphan_shared(shm_dir: str | os.PathLike = "/dev/shm") -> int:
    """Unlink trace segments whose exporting process is gone.

    A worker or parent killed between exporting a segment and
    :meth:`TraceCache.close_shared` strands it in ``/dev/shm`` forever
    (shared memory has no owner-exit cleanup).  Segment names embed the
    exporter's pid, so any later process — the scheduler runs this at
    start — can safely reap segments whose exporter is dead.  Live
    exporters (including this process) are never touched.  Returns the
    number of segments removed; platforms without a file-backed shm
    directory simply sweep nothing.
    """
    from multiprocessing import shared_memory

    removed = 0
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return 0
    for name in names:
        if not name.startswith(SHM_PREFIX + "_"):
            continue
        try:
            pid = int(name[len(SHM_PREFIX) + 1 :].split("_", 1)[0])
        except ValueError:
            continue
        if pid == os.getpid() or pid_alive(pid):
            continue
        try:
            shm = shared_memory.SharedMemory(name=name)
        except OSError:
            continue  # raced with another sweeper
        try:
            shm.close()
            shm.unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced with another sweeper
            pass
    return removed


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


class MaterializedTrace:
    """One benchmark's per-core record stream, drained into column buffers.

    ``columns`` holds the stream prefix produced so far as four packed
    arrays laid out as ``layout`` (:data:`NARROW` or :data:`WIDE`);
    ``length`` is the number of complete records in them.  Replays
    read through :meth:`replay` and extend the buffer via :meth:`ensure`,
    which continues the original source (kept live in-process) or an
    identically seeded rebuild fast-forwarded past the prefix (after a
    disk/shared-memory round trip).
    """

    __slots__ = (
        "digest",
        "columns",
        "length",
        "records",
        "persisted_len",
        "_source",
        "_factory",
        "_grow",
        "_lock",
    )

    def __init__(
        self,
        digest: str,
        factory,
        columns: Optional[tuple] = None,
        source=None,
        first_extension: int = 0,
        layout: str = NARROW,
    ) -> None:
        self.digest = digest
        if columns is None:
            columns = tuple(array(code) for code in layout)
        self.columns: tuple[array, array, array, array] = columns
        self.length = len(columns[0])
        #: Read-only record view: ``len()`` and ``(gap, pc, line, w)`` items.
        self.records = _Records(self)
        #: Buffer length already on disk (skip rewrites that add nothing).
        self.persisted_len = self.length
        #: Block source positioned exactly at ``length`` records, or
        #: ``None`` when the buffer was loaded without one.
        self._source = source
        #: Zero-argument callable producing a fresh, identically seeded
        #: block source (used to rebuild ``_source`` after a load).  Its
        #: ``fill`` must return lists: they are packed with ``fromlist``.
        self._factory = factory
        #: Lower bound on the buffer length after the next extension: the
        #: run's own estimate at first, then geometric growth.
        self._grow = first_extension
        #: Serialises extension: replays on several threads (in-process
        #: cells of schedulers sharing one process) share one buffer and
        #: one source.
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes held by the materialized records (all four columns)."""
        return sum(len(column) * column.itemsize for column in self.columns)

    def ensure(self, n: int) -> None:
        """Extend the buffer to at least ``n`` records.

        The only way a buffer grows.  Readers never take the lock: columns
        only ever grow at the end, and ``length`` is raised only after all
        four hold the new records.
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
            target = max(n, self._grow)
            columns = self.columns
            while self.length < target:
                want = min(target - self.length, _FILL_STEP)
                block = source.fill(want)
                for column, values in zip(columns, block):
                    column.fromlist(values)
                got = len(block[0])
                self.length += got
                if got < want:  # finite source drained
                    break
            self._grow = self.length + self.length // 2  # geometric, x1.5

    def replay(self) -> "_Replay":
        """An engine-facing block source over this buffer, from record 0."""
        return _Replay(self)

    # ------------------------------------------------------------------ #
    # Serialization (disk files and shared-memory segments share it)
    # ------------------------------------------------------------------ #

    @property
    def layout(self) -> str:
        """The four column typecodes (:data:`NARROW` or :data:`WIDE`)."""
        return "".join(column.typecode for column in self.columns)

    def to_bytes(self) -> bytes:
        """Serialize the buffer: header + the four raw column blocks."""
        with self._lock:
            header = _HEADER.pack(_MAGIC, self.length, self.layout.encode("ascii"))
            return header + b"".join(column.tobytes() for column in self.columns)

    @staticmethod
    def decode(payload) -> tuple[array, array, array, array]:
        """Parse :meth:`to_bytes` output back into the four columns."""
        magic, count, layout = _HEADER.unpack_from(payload, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad trace buffer magic {magic!r}")
        layout = layout.decode("ascii", "replace")
        if layout not in _LAYOUTS:
            raise ValueError(f"bad trace buffer layout {layout!r}")
        columns = []
        offset = _HEADER.size
        with memoryview(payload) as view:
            for code in layout:
                column = array(code)
                size = count * column.itemsize
                if offset + size > len(view):
                    raise ValueError("truncated trace buffer")
                column.frombytes(view[offset : offset + size])
                offset += size
                columns.append(column)
        return tuple(columns)


class _Replay:
    """A cursor handing out one buffer's records as column blocks.

    gap, line and write come out as lists (read for every record); pc
    stays an array slice, indexed only on an L1 miss.
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
        gaps, pcs, lines, writes = trace.columns
        return (
            gaps[start:stop].tolist(),
            pcs[start:stop],
            lines[start:stop].tolist(),
            writes[start:stop].tolist(),
        )


class _Records:
    """Tuple view of a buffer's materialized prefix (tests, inspection)."""

    __slots__ = ("_trace",)

    def __init__(self, trace: MaterializedTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.length

    def __getitem__(self, index):
        length = self._trace.length
        gap, pc, line, write = (column[:length][index] for column in self._trace.columns)
        if isinstance(index, slice):
            return list(zip(gap, pc, line, map(bool, write)))
        return gap, pc, line, bool(write)


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

    Layers, consulted in order: in-process memo, attached shared-memory
    segments (worker side of a parallel run), the on-disk store under
    ``<cache_dir>/_traces/``.  A miss everywhere materializes lazily from
    the workload's block source.  The memo holds at most ``max_bytes`` of
    column data (checked whenever a stream joins it); the least recently
    used streams go first, the newest always stays.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_bytes: int = _DEFAULT_MAX_BYTES,
    ) -> None:
        self._memo: OrderedDict[str, MaterializedTrace] = OrderedDict()
        self._max_bytes = max_bytes
        #: digest -> shared-memory segment name, set by :meth:`attach_shared`.
        self._shared: dict[str, str] = {}
        #: Exported segments owned by this (parent) process.
        self._exports: list = []
        #: digest -> (records, segment name) of its newest export.
        self._exported: dict[str, tuple[int, str]] = {}
        self._export_seq = 0
        self.cache_dir: Optional[Path] = None
        #: The trace directory already swept of older-format files.
        self._swept: Optional[Path] = None
        self.stats = {
            "memo_hits": 0,
            "disk_hits": 0,
            "shm_hits": 0,
            "materialized": 0,
        }
        if cache_dir is not None:
            self.set_cache_dir(cache_dir)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def set_cache_dir(self, cache_dir: Optional[os.PathLike]) -> None:
        """Point the disk layer at ``<cache_dir>/_traces`` (``None`` disables)."""
        if cache_dir is None:
            self.cache_dir = None
        else:
            self.cache_dir = Path(cache_dir) / "_traces"

    # ------------------------------------------------------------------ #
    # Lookup / materialization
    # ------------------------------------------------------------------ #

    @staticmethod
    def digest_for(signature, core_seed: int, quota: int, warmup: int) -> str:
        """Content address of one per-core stream.

        ``signature`` is the workload's stable stream description;
        ``core_seed`` is the exact engine RNG seed ``(seed << 8) + core``.
        ``quota``/``warmup`` join the address (per the content-addressing
        contract) even though the stream itself is run-length-agnostic.
        """
        payload = repr((TRACE_FORMAT_VERSION, signature, core_seed, quota, warmup))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(
        self, workload, core_id: int, seed: int, quota: int, warmup: int
    ) -> Optional[MaterializedTrace]:
        """The materialized stream for one core, or ``None`` if the
        workload does not expose a deterministic trace signature."""
        signature_fn = getattr(workload, "trace_signature", None)
        if signature_fn is None:
            return None
        core_seed = (seed << 8) + core_id
        digest = self.digest_for(signature_fn(), core_seed, quota, warmup)
        memo = self._memo
        entry = memo.get(digest)
        if entry is not None:
            memo.move_to_end(digest)
            self.stats["memo_hits"] += 1
            return entry
        factory = self._factory(workload, core_seed)
        source = None
        columns = self._load_shared(digest)
        if columns is None:
            columns = self._load_disk(digest)
        else:
            self.stats["shm_hits"] += 1
        if columns is None:
            self.stats["materialized"] += 1
            source = factory()
        entry = MaterializedTrace(
            digest,
            factory,
            columns=columns,
            source=source,
            first_extension=self._estimate(workload, quota, warmup),
            layout=self._layout(workload),
        )
        memo[digest] = entry
        total = sum(e.nbytes for e in memo.values())
        while total > self._max_bytes and len(memo) > 1:
            total -= memo.popitem(last=False)[1].nbytes
        return entry

    @staticmethod
    def _factory(workload, core_seed: int):
        return lambda: workload.source(Random(core_seed))

    @staticmethod
    def _layout(workload) -> str:
        """Narrow columns unless the stream's line addresses may need 64 bits."""
        limit = getattr(workload, "line_limit", None)
        return NARROW if limit is not None and limit <= 1 << 32 else WIDE

    @staticmethod
    def _estimate(workload, quota: int, warmup: int, slack: float = 1.4) -> int:
        """Records one run of ``quota``/``warmup`` is expected to replay.

        The committed-instruction budget over the smallest possible
        per-record commit (``gap_min + 1``) times ``slack`` (the
        post-quota keep-running phase), plus one engine block.
        """
        gap = getattr(getattr(workload, "spec", None), "gap", None)
        gap_min = gap[0] if gap else 1
        return int((quota + warmup) / (gap_min + 1) * slack) + 1024

    def wrap_workloads(
        self, workloads: list, seed: int, quota: int, warmup: int
    ) -> list:
        """Replace materializable workloads with buffer-replaying proxies.

        Position in the list is the engine core id; workloads without a
        trace signature pass through untouched (generator path).
        """
        wrapped = []
        for core_id, workload in enumerate(workloads):
            entry = self.get(workload, core_id, seed, quota, warmup)
            if entry is None:
                wrapped.append(workload)
            else:
                wrapped.append(_CachedTraceWorkload(workload, entry))
        return wrapped

    def materialize_for_run(
        self, workloads: list, seed: int, quota: int, warmup: int, slack: float = 1.4
    ) -> list[MaterializedTrace]:
        """Eagerly generate the buffers one run of ``workloads`` will replay.

        Used by fan-out parents before exporting shared memory: workers
        cannot extend a parent's buffer, so the prefix must already cover
        the run (see :meth:`_estimate`); a run that still outlives the
        prefix falls back to generation in the worker — slower, never
        wrong.
        """
        entries = []
        for core_id, workload in enumerate(workloads):
            entry = self.get(workload, core_id, seed, quota, warmup)
            if entry is None:
                continue
            entry.ensure(self._estimate(workload, quota, warmup, slack))
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------ #
    # Disk layer
    # ------------------------------------------------------------------ #

    def _path(self, digest: str) -> Path:
        trace_dir = self.cache_dir
        assert trace_dir is not None
        if trace_dir != self._swept:
            # First use of this directory: drop files of older formats.
            self._swept = trace_dir
            sweep_stale_traces(trace_dir)
        return trace_dir / f"{digest}.trc"

    def _load_disk(self, digest: str) -> Optional[tuple]:
        if self.cache_dir is None:
            return None
        path = self._path(digest)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            columns = MaterializedTrace.decode(payload)
        except (ValueError, struct.error):
            # A torn or foreign file is not worth failing a run over; the
            # stream regenerates and the file is rewritten by persist().
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats["disk_hits"] += 1
        return columns

    def persist(self) -> int:
        """Write grown buffers to the disk layer; returns files written.

        Files are written via a same-directory temp name + atomic rename,
        mirroring the result cache's torn-write discipline.
        """
        if self.cache_dir is None:
            return 0
        written = 0
        # Snapshot: another scheduler thread sharing the process-global
        # cache may be materializing (inserting) concurrently.
        for entry in list(self._memo.values()):
            length = entry.length
            if not length or length == entry.persisted_len:
                continue
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(entry.digest)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(entry.to_bytes())
            os.replace(tmp, path)
            entry.persisted_len = length
            written += 1
        return written

    # ------------------------------------------------------------------ #
    # Shared-memory layer
    # ------------------------------------------------------------------ #

    def export_shared(self) -> dict[str, str]:
        """Copy memoized buffers that are new or have grown into shared memory.

        Returns ``{digest: segment_name}`` naming the newest segment of
        every buffer exported since :meth:`close_shared`, for worker
        payloads.  Segments stay alive until :meth:`close_shared` — a
        grown buffer's older segment too, since an in-flight worker may
        still attach it; the parent owns the unlink.
        """
        from multiprocessing import shared_memory

        for digest, entry in list(self._memo.items()):
            if entry.length <= self._exported.get(digest, (0, ""))[0]:
                continue
            payload = entry.to_bytes()
            # Pid-stamped names make stranded segments attributable (and
            # therefore sweepable — see sweep_orphan_shared).
            shm = None
            for _ in range(32):
                name = f"{SHM_PREFIX}_{os.getpid()}_{self._export_seq}"
                self._export_seq += 1
                try:
                    shm = shared_memory.SharedMemory(
                        name=name, create=True, size=len(payload)
                    )
                    break
                except FileExistsError:
                    continue  # stale same-pid leftover; try the next seq
            if shm is None:  # pragma: no cover - 32 collisions in a row
                shm = shared_memory.SharedMemory(create=True, size=len(payload))
            shm.buf[: len(payload)] = payload
            self._exports.append(shm)
            self._exported[digest] = (entry.length, shm.name)
        return {digest: name for digest, (_length, name) in self._exported.items()}

    def close_shared(self) -> None:
        """Release (close + unlink) every segment this process exported."""
        for shm in self._exports:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._exports.clear()
        self._exported.clear()

    def attach_shared(self, mapping: dict[str, str]) -> None:
        """Register parent-exported segments (worker side, attached lazily)."""
        self._shared.update(mapping)

    def _load_shared(self, digest: str) -> Optional[tuple]:
        name = self._shared.get(digest)
        if name is None:
            return None
        import mmap

        import _posixshmem

        # Opened by hand, not as a SharedMemory: pre-3.13 that would
        # register the attach with the resource tracker, which pool
        # workers share with the parent — the segment's sole owner.
        try:
            fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
        except OSError:
            return None
        try:
            with mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ) as buf:
                return MaterializedTrace.decode(buf)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop the memo (tests; exported segments are left untouched)."""
        self._memo.clear()
        self._shared.clear()


#: The process-global cache ``simulate_spec`` and the scheduler share.
_GLOBAL: Optional[TraceCache] = None


def get_trace_cache() -> TraceCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = TraceCache()
    return _GLOBAL


def reset_trace_cache() -> None:
    """Tests: forget the global cache (segments/exports are not touched)."""
    global _GLOBAL
    _GLOBAL = None
