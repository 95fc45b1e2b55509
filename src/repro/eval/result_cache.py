"""Persistent, content-addressed cache for simulation results.

A sweep point is keyed by a stable hash of everything that determines its
:class:`~repro.sim.results.SimResult`: workload name, scale, seed,
sample_cores, mode, recovery rate, the full :class:`SystemConfig` contents,
and a schema version (bumped whenever simulation semantics change).  Keys
are content hashes, so two structurally equal configs share cache entries
no matter how or when they were constructed.

Entries live as pickle files under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable), sharded by the first two hex
digits of the key.  Writes are atomic (temp file + rename) so a crashed or
parallel writer can never leave a truncated entry behind.

Every entry is checksum-verified: the payload pickle travels inside an
envelope carrying a magic tag, the store schema, and the payload's SHA-256.
A corrupt, truncated, or schema-mismatched entry is **quarantined** — moved
to ``.repro_cache/quarantine/`` for post-mortem instead of crashing the run
— and counts as a miss.  Entries larger than ``$REPRO_CACHE_MAX_MB``
(default 512) are never written; the store reports the skip so callers can
warn once.

The store is the durability floor long unattended sweeps stand on
(DESIGN.md §5g): writes go to a temp file in the entry's shard and land
via ``os.replace`` under a best-effort per-shard advisory lock, so
concurrent writers — parallel sweep workers, overlapping sessions — can
never interleave bytes or expose a half-written entry.  A write that
fails at the filesystem (ENOSPC, EACCES, a vanished directory) degrades
to a counted miss instead of raising: losing a cache entry must never
cost a computed result.  The same paths host deterministic fault
injection (:mod:`repro.fault.chaos`): an injector passed to the
constructor — or installed ambiently via ``$REPRO_CHAOS`` — fires
seeded ENOSPC / torn-write / byte-flip / EACCES / stall faults on every
read and write, and the chaos property suite asserts the stack above
degrades to quarantine-and-recompute with zero result divergence.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

try:  # advisory locks are POSIX-only; the store degrades without them
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Bump when simulator semantics change in a way that invalidates old
#: cached SimResults (e.g. the vectorized cache model's replacement rules,
#: or new SimResult fields such as the stage-timing profile or the
#: fault-injection statistics).  4: envelopes carry an artifact ``kind``
#: and the store holds functional-trace replay artifacts alongside
#: results and workload builds.  5: derived stream-geometry bundles
#: (kind "stats") join the store, and AddressSpace grew the sorted
#: page-table used by the vectorized translation.
CACHE_SCHEMA = 5

#: Artifact kinds an envelope can carry (``kind`` field); entries written
#: before the field existed count as "result".  Older stores may still
#: hold "build" and "stats" entries; nothing looks them up any more and
#: ``repro cache clear`` removes them.
KIND_RESULT = "result"
KIND_REPLAY = "replay"

#: Envelope tag distinguishing checksummed entries from foreign pickles.
_MAGIC = "repro-cache-v1"

_DEFAULT_DIR = ".repro_cache"
_ENV_DIR = "REPRO_CACHE_DIR"
_QUARANTINE_DIR = "quarantine"
#: Per-shard advisory lock file (never a cache entry).
_LOCK_NAME = ".lock"
#: Cap on a single entry's serialized size, in MB (0 disables the cap).
_ENV_MAX_MB = "REPRO_CACHE_MAX_MB"
_DEFAULT_MAX_MB = 512.0


class _ByteCount:
    """A write-only sink that counts the bytes a pickler streams in."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, data) -> int:
        self.count += len(data)
        return len(data)


def max_entry_bytes() -> Optional[int]:
    """The per-entry size cap from ``$REPRO_CACHE_MAX_MB`` (None = no cap)."""
    raw = os.environ.get(_ENV_MAX_MB, "").strip()
    try:
        mb = float(raw) if raw else _DEFAULT_MAX_MB
    except ValueError:
        mb = _DEFAULT_MAX_MB
    if mb <= 0:
        return None
    return int(mb * 1024 * 1024)


@contextmanager
def _shard_lock(entry_path: Path):
    """Best-effort advisory lock serializing writers of one shard.

    ``os.replace`` already makes individual writes atomic; the flock
    additionally serializes concurrent writers of the same shard so two
    processes racing on one key settle in a defined order and quarantine
    moves never race a rewrite.  Purely advisory and best-effort: on
    platforms without ``fcntl``, or when the lock file itself cannot be
    opened (read-only store, permission chaos), the writer proceeds
    unlocked — atomicity still holds, only the ordering guarantee is
    lost.
    """
    if fcntl is None:
        yield
        return
    fd = None
    try:
        fd = os.open(entry_path.parent / _LOCK_NAME,
                     os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError:
        if fd is not None:
            os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Handles the frozen dataclasses and enums that make up
    :class:`SystemConfig` and sweep points; insertion order never leaks
    into the result, so equal values always canonicalize identically.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {f.name: _canonical(getattr(obj, f.name))
                       for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, enum.Enum):
        return ["__enum__", type(obj).__name__, obj.value]
    if isinstance(obj, dict):
        return {"__dict__": sorted(
            (json.dumps(_canonical(k), sort_keys=True), _canonical(v))
            for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for "
                    f"cache keying")


def fingerprint(obj: Any) -> str:
    """Stable content hash of any canonicalizable value."""
    blob = json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def config_fingerprint(config: Any) -> str:
    """Content hash of a :class:`SystemConfig` (or any nested dataclass)."""
    return fingerprint(config)


def point_key(workload: str, mode: Any, config: Any, scale: float,
              seed: int, sample_cores: int,
              fault_plan: Any = None) -> str:
    """Content hash identifying one (workload, mode, config) sweep point."""
    return fingerprint({
        "schema": CACHE_SCHEMA,
        "workload": workload,
        "mode": mode,
        "config": config,
        "scale": scale,
        "seed": seed,
        "sample_cores": sample_cores,
        "fault_plan": fault_plan,
    })


class ResultCache:
    """Checksummed on-disk pickle cache with a corruption quarantine."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 injector: Optional[Any] = None) -> None:
        self.root = Path(root if root is not None
                         else os.environ.get(_ENV_DIR, _DEFAULT_DIR))
        if injector is None and os.environ.get("REPRO_CHAOS", "").strip():
            # Ambient storage-fault injection: sweep workers inherit the
            # env, so a whole parallel sweep runs under the same seeded
            # chaos.  Imported lazily — the fault package must not load
            # on every cache construction.
            from repro.fault.chaos import injector_from_env
            injector = injector_from_env()
        self.injector = injector
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.quarantined = 0
        self.oversize_skips = 0
        self.write_errors = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def entry_identity(self, key: str) -> Optional[Tuple[int, int, int]]:
        """``(st_ino, st_size, st_mtime_ns)`` of ``key``'s entry file from
        one ``os.stat``, or None when there is none.

        A rewrite (a new file renamed over it), a quarantine move or a
        deletion changes or removes the identity, so a caller holding a
        value it loaded can tell whether the entry is still the one it
        read.  Reads nothing and counts nothing.
        """
        try:
            st = os.stat(self._path(key))
        except OSError:
            return None
        return (st.st_ino, st.st_size, st.st_mtime_ns)

    @property
    def quarantine_root(self) -> Path:
        return self.root / _QUARANTINE_DIR

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside for post-mortem instead of deleting it."""
        self.quarantined += 1
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            with _shard_lock(path):
                os.replace(path, self.quarantine_root
                           / f"{path.stem}.{reason}{path.suffix}")
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _envelope(value: Any, kind: str) -> Dict[str, Any]:
        """Envelope a value: payload pickle + SHA-256 + schema + magic."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return {"magic": _MAGIC, "schema": CACHE_SCHEMA, "kind": kind,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload": payload}

    @staticmethod
    def _payload(blob: bytes) -> bytes:
        """Verify an envelope and return its payload; raises on any
        defect."""
        envelope = pickle.loads(blob)
        if not isinstance(envelope, dict) \
                or envelope.get("magic") != _MAGIC:
            raise ValueError("not a checksummed cache entry")
        if envelope.get("schema") != CACHE_SCHEMA:
            raise ValueError(f"store schema {envelope.get('schema')!r} != "
                             f"{CACHE_SCHEMA}")
        payload = envelope.get("payload")
        if not isinstance(payload, bytes):
            raise ValueError("missing payload")
        if hashlib.sha256(payload).hexdigest() != envelope.get("sha256"):
            raise ValueError("checksum mismatch")
        return payload

    def lookup(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key``, or None on a miss.

        A missing file is a plain miss; anything unreadable — truncated
        pickle, flipped bits, foreign format, stale store schema — is
        quarantined under ``quarantine/`` and counted as a miss.  Lookups
        never raise.
        """
        path = self._path(key)
        try:
            if self.injector is not None:
                self.injector.on_read(path)
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        size = len(blob)
        try:
            payload = self._payload(blob)
            # Drop the file image before unpickling: a large entry is
            # then never held three times over.
            del blob
            value = pickle.loads(payload)
        except Exception:
            self.misses += 1
            self._quarantine(path, "corrupt")
            return None
        self.hits += 1
        self.bytes_read += size
        return value

    def store(self, key: str, value: Any, kind: str = KIND_RESULT) -> bool:
        """Persist ``value`` under ``key`` atomically.

        ``kind`` labels the artifact class ("result" or "replay") in the
        envelope so ``repro cache stats`` can account each class
        separately.  Returns False (storing nothing) when the serialized
        entry exceeds ``$REPRO_CACHE_MAX_MB`` — a runaway entry must
        degrade to a cache miss, not fill the disk.

        Serialization errors (an unpicklable value) still raise — that
        is a caller bug — but a write the *filesystem* refuses (ENOSPC,
        EACCES, a shard directory yanked from under us) degrades to a
        counted miss (``write_errors``) and returns False: an unattended
        sweep on a full disk must keep computing and returning results,
        not die storing them.

        The envelope is streamed to disk: the pickler hands the payload
        to the file (and to the size count before it) by reference, so a
        large entry is never held twice in memory.  Only chaos injection
        materializes the whole entry, to tear or flip it.
        """
        path = self._path(key)
        envelope = self._envelope(value, kind)
        sink = _ByteCount()
        pickle.dump(envelope, sink, protocol=pickle.HIGHEST_PROTOCOL)
        size = sink.count
        limit = max_entry_bytes()
        if limit is not None and size > limit:
            self.oversize_skips += 1
            return False
        blob = None
        tmp = None
        try:
            if self.injector is not None:
                # May raise (ENOSPC/EACCES) or return a torn/flipped
                # blob that lands at rest, exactly like real corruption.
                blob = self.injector.on_write(path, pickle.dumps(
                    envelope, protocol=pickle.HIGHEST_PROTOCOL))
                size = len(blob)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                if blob is None:
                    pickle.dump(envelope, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                else:
                    fh.write(blob)
            with _shard_lock(path):
                os.replace(tmp, path)
            tmp = None
        except OSError:
            self.write_errors += 1
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.bytes_written += size
        return True

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for lock in self.root.rglob(_LOCK_NAME):
            try:
                lock.unlink()
            except OSError:
                pass
        for shard in sorted(self.root.glob("*"), reverse=True):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed

    def clear_quarantine(self) -> int:
        """Delete quarantined entries only; returns the number removed.

        Quarantine is a post-mortem holding pen, not an archive: chaos
        runs and long unattended sweeps can park thousands of corrupt
        entries there, and nothing else ever deletes them (``repro cache
        clear --quarantine`` calls this).  Live entries are untouched.
        """
        removed = 0
        quarantine = self.quarantine_root
        if not quarantine.exists():
            return 0
        for path in quarantine.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            quarantine.rmdir()
        except OSError:
            pass
        return removed

    @staticmethod
    def _entry_kind(blob: bytes) -> str:
        """The artifact kind recorded in an entry's envelope.

        Pre-kind envelopes count as results; anything unreadable is
        "corrupt" (stats must never raise on a bad file).
        """
        try:
            envelope = pickle.loads(blob)
            if not isinstance(envelope, dict) \
                    or envelope.get("magic") != _MAGIC:
                return "corrupt"
            return str(envelope.get("kind", KIND_RESULT))
        except Exception:
            return "corrupt"

    def disk_stats(self, by_kind: bool = False) -> Dict[str, Any]:
        """Entry count and total bytes currently on disk.

        Always reports the quarantine (count and bytes) separately from
        live entries.  With ``by_kind`` each live entry's envelope is read
        to split the accounting into artifact classes (``result`` sweep
        points, ``replay`` functional traces with their derived
        geometry) — the replay artifacts are the large ones, so this is
        how their footprint is judged against ``$REPRO_CACHE_MAX_MB``.
        """
        entries = 0
        size = 0
        kinds: Dict[str, Dict[str, int]] = {}
        q_entries = 0
        q_size = 0
        quarantine = self.quarantine_root
        if quarantine.exists():
            for path in quarantine.glob("*.pkl"):
                try:
                    q_size += path.stat().st_size
                    q_entries += 1
                except OSError:
                    pass
        if self.root.exists():
            for path in self.root.rglob("*.pkl"):
                if quarantine in path.parents:
                    continue
                try:
                    nbytes = path.stat().st_size
                except OSError:
                    continue
                size += nbytes
                entries += 1
                if by_kind:
                    try:
                        kind = self._entry_kind(path.read_bytes())
                    except OSError:
                        kind = "corrupt"
                    bucket = kinds.setdefault(kind,
                                              {"entries": 0, "bytes": 0})
                    bucket["entries"] += 1
                    bucket["bytes"] += nbytes
        stats: Dict[str, Any] = {"entries": entries, "bytes": size,
                                 "quarantined_entries": q_entries,
                                 "quarantined_bytes": q_size}
        if by_kind:
            stats["kinds"] = kinds
        return stats

    def stats(self) -> Dict[str, int]:
        """Session statistics for this process's lookups and stores."""
        return {"hits": self.hits, "misses": self.misses,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "quarantined": self.quarantined,
                "oversize_skips": self.oversize_skips,
                "write_errors": self.write_errors}


_default_cache: Optional[ResultCache] = None


def get_default_cache() -> ResultCache:
    """Process-wide cache rooted at ``$REPRO_CACHE_DIR`` or .repro_cache."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache


def set_default_cache(root: Optional[os.PathLike]) -> ResultCache:
    """Repoint the process-wide cache (e.g. from ``--cache-dir``)."""
    global _default_cache
    _default_cache = ResultCache(root)
    return _default_cache
