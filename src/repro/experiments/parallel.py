"""Content-addressed, checksummed on-disk store for simulation results.

Every finished cell is pickled under its canonical
:meth:`~repro.api.spec.RunSpec.cache_key` — SHA-256 over the cache
format version and every parameter that can influence a result — so
re-running a sweep with the same configuration loads cells instead of
simulating them, while *any* parameter change (scale, quota, warmup,
seed, L2 size, prefetcher, or the format version) changes the key and
stale results can never be served.  Entries embed a SHA-256 payload
checksum verified on read; corrupt or truncated entries are quarantined
and recomputed.  Writes go through a temporary file and ``os.replace``
so concurrent writers sharing a cache directory see only complete
entries.

The batch scheduler (:mod:`repro.service.scheduler`) is the one consumer:
it consults the cache before simulating and stores every finished cell
the moment it completes, so an interrupted sweep resumes from disk.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional

from repro.sim.results import SystemResult


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


class ResultCache:
    """On-disk pickle store for :class:`SystemResult`, keyed by content.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (fan-out over 256 subdirectories
    keeps any one directory small).  Each entry is ``magic || sha256(payload)
    || payload``; ``get`` verifies the checksum before unpickling, so a
    truncated or bit-flipped entry can never be trusted.  Damaged entries
    are *quarantined* — moved under ``<root>/_quarantine/`` for post-mortem
    rather than silently deleted — and treated as misses, so a killed or
    corrupted run can never wedge the cache.  Init sweeps temporary files
    stranded by writers that crashed between write and rename.
    """

    #: Entry header; changing the on-disk layout changes this magic (and
    #: :data:`repro.api.spec.CACHE_FORMAT_VERSION`, which keys every entry).
    MAGIC = b"RPC2"

    #: Directory (under the root) quarantined entries are moved into.
    QUARANTINE = "_quarantine"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        self.hits = 0
        self.misses = 0
        self.tmp_swept = self._sweep_stale_tmp()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Cheap existence probe — no read, no counters, no verification."""
        return self._path(key).exists()

    def _sweep_stale_tmp(self) -> int:
        """Remove tmp files whose writer is gone (crashed mid-``put``).

        Tmp names embed the writer's PID; a tmp whose process no longer
        exists (or whose name does not parse) is stranded and removed.
        Live writers sharing the cache directory are left alone, and so
        is the trace store (``_traces/``), which shares the cache root
        but manages its own files.
        """
        removed = 0
        for tmp in self.root.glob("*/.*.tmp"):
            if tmp.parent.name == "_traces":
                continue  # the trace cache owns its directory
            try:
                pid = int(tmp.name.rsplit(".", 2)[-2])
            except (ValueError, IndexError):
                pid = None
            if pid is not None and pid != os.getpid() and pid_alive(pid):
                continue  # a concurrent writer still owns it
            if pid == os.getpid():
                continue  # our own in-flight write (put cleans up after itself)
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside instead of trusting or hiding it."""
        target_dir = self.root / self.QUARANTINE
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:  # fall back to deletion: never leave a bad entry servable
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def get(self, key: str) -> Optional[SystemResult]:
        import hashlib  # here, not at module level: it maps OpenSSL

        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        header = len(self.MAGIC) + hashlib.sha256().digest_size
        if (
            len(data) < header
            or not data.startswith(self.MAGIC)
            or hashlib.sha256(data[header:]).digest()
            != data[len(self.MAGIC) : header]
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            result = pickle.loads(data[header:])
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(result, SystemResult):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SystemResult) -> None:
        import hashlib

        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        entry = self.MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(entry)
            os.replace(tmp, path)  # atomic: readers see old or new, never partial
        finally:
            tmp.unlink(missing_ok=True)  # crash between write and rename

