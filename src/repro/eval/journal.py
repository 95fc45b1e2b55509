"""Durable sweep journal: every point lands on disk as it completes.

A long unattended sweep must survive being killed at any instant —
SIGKILL, OOM, a power cut — without losing completed work.  The result
cache already persists points, but only when a cache is enabled, and it
is content-addressed (no notion of "this sweep's progress").  The
journal closes that gap: :func:`~repro.eval.sweep.run_sweep` appends one
self-contained JSONL record per point *the moment it completes*, and a
restart with ``resume=True`` (``repro sweep --resume``) replays the
journal, skips every point already recorded, and reconstructs their
:class:`~repro.sim.results.SimResult`\\ s bit-identically — the resumed
:class:`~repro.eval.sweep.SweepResults` equals an uninterrupted run's.

Each record is one ``os.write`` on an ``O_APPEND`` descriptor
(:func:`append_jsonl`), so concurrent appenders never interleave and a
crash can only tear the final line.  Loading is paranoid the same way
the cache store is: every line must parse, carry the journal schema,
and — for completed points — hold a payload whose SHA-256 matches
before it is unpickled.  A torn, corrupt, or foreign-schema line is
counted and skipped, never trusted and never fatal; the affected point
is simply recomputed.

The journal is an append-only log, not a database: resuming a sweep
whose definition changed is safe (records are keyed by the same content
hash as the result cache, so stale points just never match), and
re-running a finished sweep with ``resume=True`` is a no-op that reads
everything back from the journal.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

#: Bump when the journal record layout changes incompatibly; loaders
#: skip records from other schemas (the points are recomputed).
JOURNAL_SCHEMA = 1

#: Record kinds (``kind`` field).
KIND_START = "sweep-start"
KIND_POINT = "sweep-point"

#: Point statuses (``status`` field).
STATUS_OK = "ok"
STATUS_ERROR = "error"


def append_jsonl(path: os.PathLike, record: Dict[str, Any]) -> None:
    """Append one JSON object as a single atomic line.

    The whole line lands in one ``os.write`` on an ``O_APPEND``
    descriptor, which POSIX makes atomic with respect to other appenders
    for writes of this size — concurrent writers (two sweeps sharing one
    journal) never interleave bytes mid-record, and a crash can only
    tear the final line, which readers skip.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(target, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def iter_jsonl(path: os.PathLike):
    """Yield the JSON objects of a JSONL file, skipping torn lines.

    Anything that does not parse to a JSON object — a truncated tail
    from a crashed writer, stray text, bytes that are not valid UTF-8 —
    is silently skipped so a partial history stays usable. The file is
    read in binary and decoded per line: a writer killed mid-way through
    a multi-byte UTF-8 sequence must only lose that line, not make the
    whole file unreadable.  A missing file yields nothing.
    """
    try:
        with open(path, "rb") as fh:
            for raw in fh:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record
    except FileNotFoundError:
        pass


class JournalState:
    """What a journal replay recovered.

    ``completed`` maps point keys to unpickled
    :class:`~repro.sim.results.SimResult`\\ s; ``failed`` maps point keys
    to the recorded failure fields (stage/error/message/traceback/
    attempts) — resuming re-attempts those, so a crash cause that went
    away (full disk, dead node) gets a second chance.  ``corrupt``
    counts lines that existed but could not be trusted (torn tail,
    checksum mismatch, unpicklable payload, foreign schema).
    """

    def __init__(self) -> None:
        self.completed: Dict[str, Any] = {}
        self.failed: Dict[str, Dict[str, Any]] = {}
        self.corrupt = 0
        self.starts = 0

    def __len__(self) -> int:
        return len(self.completed) + len(self.failed)


class SweepJournal:
    """Append-only, torn-line-safe journal of one sweep's progress."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.appended = 0

    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_start(self, n_points: int, resumed: int = 0) -> None:
        """Mark a sweep (or resume) attempt; purely informational."""
        self._append({"kind": KIND_START, "schema": JOURNAL_SCHEMA,
                      "points": int(n_points), "resumed": int(resumed),
                      "pid": os.getpid()})

    def record_ok(self, point: Any, result: Any) -> None:
        """Journal one completed point and its full result.

        The SimResult travels as a base64 pickle plus its SHA-256, so
        the load path can verify integrity before unpickling and the
        reconstructed object is bit-identical (``to_dict``-equal and
        pickle-equal) to the one the run produced.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._append({
            "kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
            "status": STATUS_OK, "key": point.key(),
            "workload": point.workload, "mode": point.mode.value,
            "scale": point.scale, "seed": point.seed,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii"),
        })

    def record_failure(self, failure: Any) -> None:
        """Journal one failed point (a structured FailedPoint)."""
        point = failure.point
        self._append({
            "kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
            "status": STATUS_ERROR, "key": point.key(),
            "workload": point.workload, "mode": point.mode.value,
            "scale": point.scale, "seed": point.seed,
            "stage": failure.stage, "error": failure.error,
            "message": failure.message, "traceback": failure.traceback,
            "attempts": failure.attempts,
        })

    def _append(self, record: Dict[str, Any]) -> None:
        append_jsonl(self.path, record)
        self.appended += 1

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """Replay the journal; returns the recovered state.

        Later records win for a repeated key (a point that failed, then
        succeeded on a retry or resume, counts as completed).  Never
        raises on file content: every malformed record increments
        ``corrupt`` and is skipped — the worst a hostile journal can do
        is force recomputation.
        """
        state = JournalState()
        for record in iter_jsonl(self.path):
            kind = record.get("kind")
            if kind == KIND_START:
                state.starts += 1
                continue
            if kind != KIND_POINT:
                continue  # foreign line: not ours
            if record.get("schema") != JOURNAL_SCHEMA:
                state.corrupt += 1
                continue
            key = record.get("key")
            if not isinstance(key, str) or not key:
                state.corrupt += 1
                continue
            status = record.get("status")
            if status == STATUS_OK:
                result = self._decode_payload(record)
                if result is None:
                    state.corrupt += 1
                    continue
                state.completed[key] = result
                state.failed.pop(key, None)
            elif status == STATUS_ERROR:
                if key not in state.completed:
                    state.failed[key] = {
                        "stage": str(record.get("stage", "run")),
                        "error": str(record.get("error", "")),
                        "message": str(record.get("message", "")),
                        "traceback": str(record.get("traceback", "")),
                        "attempts": int(record.get("attempts", 1) or 1),
                    }
            else:
                state.corrupt += 1
        return state

    @staticmethod
    def _decode_payload(record: Dict[str, Any]) -> Optional[Any]:
        """Verify and unpickle one ok-record's payload; None on defect."""
        encoded = record.get("payload")
        digest = record.get("sha256")
        if not isinstance(encoded, str) or not isinstance(digest, str):
            return None
        try:
            payload = base64.b64decode(encoded.encode("ascii"),
                                       validate=True)
        except (ValueError, UnicodeEncodeError):
            return None
        if hashlib.sha256(payload).hexdigest() != digest:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 — any defect means recompute
            return None
