"""Durable sweep journal: every point's outcome lands on disk as it completes.

A long unattended sweep must survive being killed at any instant —
SIGKILL, OOM, a power cut — without losing completed work.  Results live
in one place, the content-addressed
:class:`~repro.eval.result_cache.ResultCache`, written the moment each
point completes; the journal is the sweep's progress ledger beside it.
:func:`~repro.eval.sweep.run_sweep` appends one JSONL record per point
as it lands: a completed point's identity (content key, workload, mode,
scale, seed), or a failed point's failure fields.  A sweep journaled
without a cache keeps its results in a private store beside the journal
(:attr:`SweepJournal.store_root`).  A restart with ``resume=True``
(``repro sweep --resume``) takes every journaled point whose result the
store still holds and recomputes the rest, so the resumed
:class:`~repro.eval.sweep.SweepResults` equals an uninterrupted run's.
A journaled key is never trusted on its own: a point whose store entry
is gone or damaged is recomputed.

Each record is one ``os.write`` on an ``O_APPEND`` descriptor
(:func:`append_jsonl`), so concurrent appenders never interleave and a
crash can only tear the final line.  A torn, malformed or
foreign-schema line is counted and skipped, never fatal; the affected
point is taken from the store or recomputed.

The journal is an append-only log, not a database: resuming a sweep
whose definition changed is safe (records are keyed by the same content
hash as the result store, so stale points just never match).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Set

#: Bump when the journal record layout changes incompatibly; loaders
#: count records from other schemas as corrupt (the points are taken
#: from the store or recomputed).  2: an ok record holds the point's
#: identity only, its result is in the store.
JOURNAL_SCHEMA = 2

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
    """What a journal read recovered.

    ``completed`` is the set of point keys journaled as completed; their
    results are in the store.  ``failed`` maps point keys to the
    recorded failure fields (stage/error/message/traceback/attempts) —
    resuming re-attempts those, so a crash cause that went away (full
    disk, dead node) gets a second chance.  ``corrupt`` counts lines
    that existed but could not be trusted (missing key, unknown status,
    malformed failure fields, foreign schema).
    """

    def __init__(self) -> None:
        self.completed: Set[str] = set()
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

    @property
    def store_root(self) -> Path:
        """The private result store of a sweep journaled without a cache:
        ``<journal>.store/`` beside the journal."""
        return self.path.with_name(self.path.name + ".store")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_start(self, n_points: int, resumed: int = 0) -> None:
        """Mark a sweep (or resume) attempt; purely informational."""
        self._append({"kind": KIND_START, "schema": JOURNAL_SCHEMA,
                      "points": int(n_points), "resumed": int(resumed),
                      "pid": os.getpid()})

    def record_ok(self, point: Any) -> None:
        """Journal one completed point by its identity; the caller has
        already written its result to the store."""
        self._append(self._point_record(STATUS_OK, point))

    def record_failure(self, failure: Any) -> None:
        """Journal one failed point (a structured FailedPoint)."""
        record = self._point_record(STATUS_ERROR, failure.point)
        record.update(stage=failure.stage, error=failure.error,
                      message=failure.message, traceback=failure.traceback,
                      attempts=failure.attempts)
        self._append(record)

    @staticmethod
    def _point_record(status: str, point: Any) -> Dict[str, Any]:
        return {"kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
                "status": status, "key": point.key(),
                "workload": point.workload, "mode": point.mode.value,
                "scale": point.scale, "seed": point.seed}

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
                state.completed.add(key)
                state.failed.pop(key, None)
            elif status == STATUS_ERROR:
                try:
                    attempts = int(record.get("attempts", 1) or 1)
                except (TypeError, ValueError, OverflowError):
                    state.corrupt += 1
                    continue
                if key not in state.completed:
                    state.failed[key] = {
                        "stage": str(record.get("stage", "run")),
                        "error": str(record.get("error", "")),
                        "message": str(record.get("message", "")),
                        "traceback": str(record.get("traceback", "")),
                        "attempts": attempts,
                    }
            else:
                state.corrupt += 1
        return state
