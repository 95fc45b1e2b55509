"""Job store: point records shared by every sweep frontend.

A :class:`JobStore` is the single source of truth a sweep runs against:
one :class:`JobRecord` per distinct point (deduplicated by the same
content key as the result cache), moving ``pending → running →
done|failed``.  The scheduler (:func:`~repro.eval.sweep.schedule_jobs`)
pulls pending points out and folds outcomes back in; the store owns the
side effects — journaling every terminal transition the moment it
happens, persisting computed results into the
:class:`~repro.eval.result_cache.ResultCache`, and notifying subscribed
listeners so a daemon can stream per-point progress events.

The store is thread-safe (the ``repro serve`` daemon runs one scheduler
thread per job over a single shared store; overlapping submissions
dedup in flight on the record's state), and it is *not* a database:
durability comes entirely from the journal and cache envelopes it is
backed by — :meth:`absorb_journal` and :meth:`absorb_cache` rebuild
state from them, and a store can always be thrown away and reloaded.

Origins: every completed record remembers where its result came from —
``computed`` (journaled *and* written to the result cache), ``cache``
(journaled only: the cache already has it), or ``journal`` (neither:
a resume replay must not re-append what it just read).  This reproduces
``run_sweep``'s pre-refactor persistence behavior exactly, which the
resume bit-identity suites depend on.

The module also carries the JSON point codec the service protocol uses
(:func:`point_to_spec` / :func:`point_from_spec`): a point travels as a
plain dict, with its :class:`~repro.config.SystemConfig` reduced to a
named preset (``ooo8``/``io4``/``ooo4``/``mesh``) — arbitrary configs
and fault plans cannot ride the wire and raise :class:`ValueError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional)

from repro.config import SystemConfig
from repro.eval.journal import SweepJournal
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import FailedPoint, SweepPoint, SweepResults
from repro.offload.modes import ExecMode
from repro.sim.results import SimResult

#: Record states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Where a completed record's result came from (drives persistence).
ORIGIN_COMPUTED = "computed"
ORIGIN_CACHE = "cache"
ORIGIN_JOURNAL = "journal"


@dataclass
class JobRecord:
    """One point's lifecycle inside the store."""

    point: SweepPoint
    key: str
    state: str = PENDING
    result: Optional[SimResult] = None
    failure: Optional[FailedPoint] = None
    origin: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)


class JobStore:
    """Shared pending/running/done/failed records for one engine.

    ``journal``/``cache`` are optional backends: when present, every
    terminal transition is journaled as it lands and computed results
    are stored content-addressed, exactly as ``run_sweep`` always did.
    Listeners registered with :meth:`subscribe` receive one dict per
    state transition (the daemon's progress-event feed); a listener
    that raises is dropped from that event, never fatal.
    """

    def __init__(self, journal: Optional[SweepJournal] = None,
                 cache: Optional[ResultCache] = None) -> None:
        self.journal = journal
        self.cache = cache
        self.lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}  # insertion-ordered
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        """Register a callback for every state-transition event."""
        self._listeners.append(listener)

    def _emit(self, event: str, record: JobRecord, **extra: Any) -> None:
        if not self._listeners:
            return
        point = record.point
        payload = {"event": event, "key": record.key,
                   "state": record.state,
                   "workload": point.workload, "mode": point.mode.value,
                   "scale": point.scale, "seed": point.seed, **extra}
        for listener in list(self._listeners):
            try:
                listener(dict(payload))
            except Exception:  # noqa: BLE001 — observers never break runs
                pass

    # ------------------------------------------------------------------
    # Populating
    # ------------------------------------------------------------------
    def add(self, point: SweepPoint) -> JobRecord:
        """Register a point; idempotent — an existing record wins.

        Identity is the content key, so two :class:`SweepPoint`\\ s that
        hash the same config dedup even across clients and sessions.
        """
        key = point.key()
        with self.lock:
            record = self._records.get(key)
            if record is None:
                record = JobRecord(point=point, key=key)
                self._records[key] = record
            return record

    def reset(self, key: str) -> None:
        """Re-arm a failed record for another attempt (resubmission)."""
        with self.lock:
            record = self._records[key]
            if record.state == FAILED:
                record.state = PENDING
                record.failure = None
                record.origin = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def record(self, key: str) -> JobRecord:
        return self._records[key]

    def get(self, key: str) -> Optional[JobRecord]:
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def state(self, key: str) -> Optional[str]:
        record = self._records.get(key)
        return record.state if record is not None else None

    def points(self) -> List[SweepPoint]:
        with self.lock:
            return [r.point for r in self._records.values()]

    def pending_points(self, keys: Optional[Iterable[str]] = None
                       ) -> List[SweepPoint]:
        """Pending points in insertion order (restricted to ``keys``)."""
        with self.lock:
            wanted = None if keys is None else set(keys)
            return [r.point for r in self._records.values()
                    if r.state == PENDING
                    and (wanted is None or r.key in wanted)]

    def counts(self) -> Dict[str, int]:
        with self.lock:
            out = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for record in self._records.values():
                out[record.state] += 1
            return out

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_running(self, key: str) -> None:
        with self.lock:
            record = self._records[key]
            if record.terminal:
                return
            record.state = RUNNING
        self._emit("point-running", record)

    def mark_done(self, key: str, result: SimResult,
                  origin: str = ORIGIN_COMPUTED) -> None:
        """Land one completed point; persistence follows the origin.

        ``computed`` results are journaled and cached; ``cache`` hits
        are journaled only (so a later resume needs neither the cache
        nor a recompute); ``journal`` replays touch nothing — they *are*
        the journal.
        """
        with self.lock:
            record = self._records[key]
            record.state = DONE
            record.result = result
            record.failure = None
            record.origin = origin
            if origin == ORIGIN_COMPUTED and self.cache is not None:
                self.cache.store(key, result)
            if origin != ORIGIN_JOURNAL and self.journal is not None:
                self.journal.record_ok(record.point, result)
        self._emit("point-done", record, origin=origin)

    def mark_failed(self, failure: FailedPoint) -> None:
        key = failure.point.key()
        with self.lock:
            record = self._records[key]
            record.state = FAILED
            record.failure = failure
            record.origin = None
            if self.journal is not None:
                self.journal.record_failure(failure)
        self._emit("point-failed", record, stage=failure.stage,
                   error=failure.error, message=failure.message,
                   attempts=failure.attempts)

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def absorb_journal(self) -> int:
        """Satisfy pending records from the journal replay; returns hits.

        Journaled failures are deliberately *not* adopted: a failure
        record is provisional, and resuming re-attempts the point.
        """
        if self.journal is None or not self.journal.exists():
            return 0
        state = self.journal.load()
        hits = 0
        with self.lock:
            for record in self._records.values():
                if record.state != PENDING:
                    continue
                hit = state.completed.get(record.key)
                if isinstance(hit, SimResult):
                    self.mark_done(record.key, hit, origin=ORIGIN_JOURNAL)
                    hits += 1
        return hits

    def absorb_cache(self, keys: Optional[Iterable[str]] = None) -> int:
        """Satisfy pending records from the result cache; returns hits."""
        if self.cache is None:
            return 0
        hits = 0
        with self.lock:
            wanted = None if keys is None else set(keys)
            for record in list(self._records.values()):
                if record.state != PENDING:
                    continue
                if wanted is not None and record.key not in wanted:
                    continue
                hit = self.cache.lookup(record.key)
                if isinstance(hit, SimResult):
                    self.mark_done(record.key, hit, origin=ORIGIN_CACHE)
                    hits += 1
        return hits

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results_for(self, points: Iterable[SweepPoint]) -> SweepResults:
        """The :class:`SweepResults` view of the given points, in order.

        Completed points map to their results; failed points contribute
        their :class:`FailedPoint` (also in caller order, so
        ``to_dict()`` is deterministic across frontends).  ``resumed``
        counts the requested points satisfied from a journal replay.
        """
        results = SweepResults()
        with self.lock:
            for point in points:
                record = self._records.get(point.key())
                if record is None:
                    continue
                if record.state == DONE:
                    results[point] = record.result
                    if record.origin == ORIGIN_JOURNAL:
                        results.resumed += 1
                elif record.state == FAILED and record.failure is not None:
                    results.failures.append(record.failure)
        return results


# ----------------------------------------------------------------------
# Wire codec: points as JSON-able dicts (the service protocol)
# ----------------------------------------------------------------------

#: Config presets a point spec may name.  Arbitrary SystemConfigs stay
#: API-only: the wire carries presets so a daemon and its clients agree
#: on content keys without pickling machine descriptions across trust
#: boundaries.
_PRESETS = {"ooo8": SystemConfig.ooo8, "io4": SystemConfig.io4,
            "ooo4": SystemConfig.ooo4}


def config_to_spec(config: SystemConfig) -> Dict[str, Any]:
    """Reduce a preset-built :class:`SystemConfig` to its wire spec."""
    tiles = config.noc.num_tiles
    for name, builder in _PRESETS.items():
        try:
            if config == builder(tiles):
                return {"preset": name, "cores": tiles}
        except ValueError:  # pragma: no cover — non-preset tile count
            pass
    if config == SystemConfig.paper_mesh(config.noc.mesh_width,
                                         config.noc.mesh_height):
        return {"preset": "mesh",
                "mesh": [config.noc.mesh_width, config.noc.mesh_height]}
    raise ValueError(
        "only preset SystemConfigs (ooo8/io4/ooo4/paper_mesh) can ride "
        "the sweep-service protocol; submit custom configs through "
        "run_sweep() in-process instead")


def config_from_spec(spec: Optional[Dict[str, Any]]) -> SystemConfig:
    """Rebuild the :class:`SystemConfig` a wire spec names."""
    if spec is None:
        return SystemConfig.ooo8()
    preset = spec.get("preset", "ooo8")
    if preset == "mesh":
        width, height = spec["mesh"]
        return SystemConfig.paper_mesh(int(width), int(height))
    builder = _PRESETS.get(preset)
    if builder is None:
        raise ValueError(f"unknown config preset {preset!r} "
                         f"(want one of {sorted(_PRESETS)} or 'mesh')")
    return builder(int(spec.get("cores", 64)))


def point_to_spec(point: SweepPoint) -> Dict[str, Any]:
    """Serialize one :class:`SweepPoint` for the service protocol."""
    if point.fault_plan is not None:
        raise ValueError("fault plans cannot ride the sweep-service "
                         "protocol; run fault sweeps through run_sweep()")
    return {"workload": point.workload, "mode": point.mode.value,
            "scale": point.scale, "seed": point.seed,
            "sample_cores": point.sample_cores,
            "config": config_to_spec(point.config)}


def point_from_spec(spec: Dict[str, Any]) -> SweepPoint:
    """Rebuild one :class:`SweepPoint` from its wire spec.

    Raises :class:`ValueError` on malformed specs (unknown mode or
    preset, missing workload, a non-zero ``recovery_rate``, which
    :class:`FaultPlan` replaces) — the daemon turns that into a structured
    error reply instead of a dead connection.
    """
    workload = spec.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ValueError("point spec needs a 'workload' name")
    if spec.get("recovery_rate", 0) != 0:
        raise ValueError(
            "'recovery_rate' is no longer a sweep knob; inject recoveries "
            "with a FaultPlan (repro.fault.FaultPlan.uniform(rate)) "
            "through run_sweep() in-process")
    mode_value = spec.get("mode", "ns")
    try:
        mode = ExecMode(mode_value)
    except ValueError:
        raise ValueError(
            f"unknown mode {mode_value!r} "
            f"(want one of {sorted(m.value for m in ExecMode)})")
    return SweepPoint(
        workload=workload, mode=mode,
        config=config_from_spec(spec.get("config")),
        scale=float(spec.get("scale", 1.0 / 64.0)),
        seed=int(spec.get("seed", 42)),
        sample_cores=int(spec.get("sample_cores", 4)))
