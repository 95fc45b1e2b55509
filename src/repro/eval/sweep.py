"""Crash-proof, crash-*durable* parallel sweep harness.

Every figure driver reduces to a set of :class:`SweepPoint`\\ s.
:func:`run_sweep` deduplicates them, satisfies what it can from the
persistent :class:`~repro.eval.result_cache.ResultCache`, groups the rest
by (workload, scale, seed, config) and runs the groups either inline
(``jobs=1``) or on a :class:`~concurrent.futures.ProcessPoolExecutor`.

Within a group only the first point pays functional cost: the group
loads the content-keyed :class:`~repro.sim.replay.FunctionalTrace` of
its address layout from the persistent cache (or builds the workload
once, records the trace, and stores it after its points ran), and every
point — every offload mode, timing knob, sample_cores, and fault plan,
none of which can change addresses or compute results — replays it.
Groups whose configs differ only outside the layout (SE knobs, core,
caches) share that one stored trace.  ``$REPRO_NO_REPLAY`` restores the
previous build-and-share-the-workload behavior.

Determinism: a group is self-contained — it derives everything from the
(name, scale, seed, config) tuple, so its results are identical whether it
runs in this process or a worker, and in any order.  ``jobs=1`` and
``jobs=N`` therefore produce bit-identical :class:`SimResult`\\ s.

Resilience: dispatch is ``submit()``-based with a per-group timeout and
bounded retry with exponential backoff.  A worker crash
(:class:`BrokenProcessPool`) or a hung group respawns the pool and retries
the affected groups; a group that keeps failing degrades gracefully — the
sweep returns every completed point, and each failed point appears as a
structured :class:`FailedPoint` on :attr:`SweepResults.failures` instead
of raising.  Workers report per-point outcomes, so one point's exception
never discards its group's completed siblings.  Workers additionally
heartbeat (once per point and once per simulated phase), so with a
``watchdog`` a single *hung* point is detected and its group killed and
retried long before the whole per-group ``timeout`` burns down.

Durability (DESIGN.md §5g): pass ``journal=`` to append every completed
or failed point to a torn-line-safe JSONL journal
(:mod:`repro.eval.journal`) *the moment it lands* — a sweep SIGKILLed at
any instant loses at most the points in flight.  ``resume=True`` replays
the journal first and runs only the missing points; the resumed
:class:`SweepResults` is bit-identical to an uninterrupted run's.  While
a journal is active, SIGINT/SIGTERM raise :class:`SweepInterrupted` — a
:class:`SystemExit` carrying the conventional 128+signum code (130/143)
— so an unattended sweep dies cleanly with its journal flushed.
"""

from __future__ import annotations

import os
import signal as _signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from repro.config.system import SystemConfig
from repro.eval.journal import SweepJournal
from repro.eval.result_cache import ResultCache, point_key
from repro.offload.modes import ExecMode

if TYPE_CHECKING:
    # Annotations only: this module loads no numpy, so the CLI can bind
    # ``run_sweep`` at import and still list workloads without numpy.
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.fault.plan import FaultPlan
    from repro.sim.results import SimResult

#: Environment override for the default worker count (``--jobs``).
_ENV_JOBS = "REPRO_JOBS"
#: Environment override for the per-group timeout in seconds (0 = none).
_ENV_TIMEOUT = "REPRO_SWEEP_TIMEOUT"
#: Environment override for the per-point heartbeat watchdog (0 = none).
_ENV_WATCHDOG = "REPRO_SWEEP_WATCHDOG"

#: Per-group record tags returned by workers.
_OK = "ok"
_ERR = "error"

#: Cap on a stored traceback's length: enough for the deepest frames
#: (the tail is kept — that is where the raising frame lives), small
#: enough that a thousand-point failure storm cannot bloat the journal.
TRACEBACK_LIMIT = 2000


def clip_traceback(tb: str) -> str:
    """Truncate a traceback to :data:`TRACEBACK_LIMIT`, keeping the tail."""
    if len(tb) <= TRACEBACK_LIMIT:
        return tb
    return ("... (truncated to last "
            f"{TRACEBACK_LIMIT} chars) ...\n") + tb[-TRACEBACK_LIMIT:]


class SweepInterrupted(SystemExit):
    """SIGINT/SIGTERM landed mid-sweep; the journal is already flushed.

    Raised (from the signal handler) only while :func:`run_sweep` runs
    with an active journal.  Subclasses :class:`SystemExit` carrying the
    conventional ``128 + signum`` code — 130 for SIGINT, 143 for SIGTERM
    — so an unhandled interrupt exits the process cleanly with the right
    status, while every point that completed before the signal stays
    journaled and resumable.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(128 + int(signum))
        self.signum = int(signum)
        self.exit_code = 128 + int(signum)


class SweepFailed(RuntimeError):
    """Some points of a sweep failed; raised by
    :meth:`SweepResults.raise_on_failure`.  ``results`` holds the
    completed points and the failure records, so a caller can still
    print the failure table."""

    def __init__(self, results: "SweepResults") -> None:
        lines = "\n  ".join(f.summary() for f in results.failures)
        super().__init__(f"{len(results.failures)} sweep point(s) "
                         f"failed:\n  {lines}")
        self.results = results


@dataclass(frozen=True)
class SweepPoint:
    """One simulation to run: a workload under a mode on a config."""

    workload: str
    mode: ExecMode
    config: SystemConfig
    scale: float = 1.0 / 64.0
    seed: int = 42
    sample_cores: int = 4
    fault_plan: Optional[FaultPlan] = None

    def key(self) -> str:
        """Content hash for the persistent result cache and the journal.

        Computed once per instance: it canonicalizes the whole config,
        and a sweep asks for it several times per point.  The memo is
        per object, not per equal value — ``scale=1`` and ``scale=1.0``
        are equal points that canonicalize to different keys.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = point_key(self.workload, self.mode, self.config,
                            self.scale, self.seed, self.sample_cores,
                            self.fault_plan)
            object.__setattr__(self, "_key", key)
        return key


@dataclass
class FailedPoint:
    """Structured record of one point that could not be simulated."""

    point: SweepPoint
    stage: str            # "build" | "run" | "worker-crash" | "timeout" | "hang"
    error: str            # exception class name (or symbolic tag)
    message: str
    traceback: str = ""   # clipped to TRACEBACK_LIMIT (tail kept)
    attempts: int = 1

    def summary(self) -> str:
        # Scale and seed are part of a point's identity: two failures of
        # the same workload/mode at different scales must not read alike.
        return (f"{self.point.workload}/{self.point.mode.value}"
                f"@{self.point.scale:g} seed={self.point.seed} "
                f"[{self.stage}] {self.error}: {self.message} "
                f"(after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''})")


class SweepResults(Dict[SweepPoint, "SimResult"]):
    """Completed points, plus structured records of any failures.

    Behaves exactly like the ``{point: SimResult}`` dict older callers
    expect; failed points are absent from the mapping and described on
    :attr:`failures`.  ``resumed`` counts the points satisfied from a
    journal replay rather than computed in this run.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.failures: List[FailedPoint] = []
        self.resumed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> "SweepResults":
        """Old strict behavior: raise :class:`SweepFailed` if anything
        failed."""
        if self.failures:
            raise SweepFailed(self)
        return self

    def to_dict(self, verbose: bool = False) -> Dict[str, Any]:
        """JSON-ready view, stable in the caller's point order.

        Used by ``repro sweep --json``, the daemon's status/result
        replies, and the resume bit-identity checks: two sweeps over the
        same points are equivalent iff their ``to_dict()`` outputs are
        equal.  Failure records carry the full point identity (scale,
        seed, content key) so two failures of the same workload/mode at
        different scales stay distinguishable; ``verbose=True`` adds the
        clipped traceback.
        """
        failures = []
        for f in self.failures:
            record = {"workload": f.point.workload,
                      "mode": f.point.mode.value,
                      "scale": f.point.scale, "seed": f.point.seed,
                      "key": f.point.key(),
                      "stage": f.stage, "error": f.error,
                      "message": f.message, "attempts": f.attempts}
            if verbose:
                record["traceback"] = f.traceback
            failures.append(record)
        return {
            "results": [
                {"workload": p.workload, "mode": p.mode.value,
                 "scale": p.scale, "seed": p.seed, "key": p.key(),
                 "result": r.to_dict()}
                for p, r in self.items()],
            "failures": failures,
        }


def _warn_bad_env(var: str, value: str, fallback: str) -> None:
    """A malformed env override must never crash a sweep mid-flight."""
    import warnings
    warnings.warn(
        f"ignoring malformed ${var}={value!r}; using {fallback}",
        RuntimeWarning, stacklevel=3)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: None → $REPRO_JOBS or 1; <=0 → all cores.

    A malformed ``$REPRO_JOBS`` (non-integer garbage) warns and falls
    back to serial instead of crashing the sweep.
    """
    if jobs is None:
        env = os.environ.get(_ENV_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                _warn_bad_env(_ENV_JOBS, env, "1 (serial)")
                jobs = 1
        else:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _resolve_seconds(value: Optional[float], env_var: str,
                     what: str) -> Optional[float]:
    """Shared explicit-arg/env resolution for timeout-like knobs.

    ``None`` means "none". An explicit ``value <= 0`` raises
    :class:`ValueError` — silently disabling a limit a caller asked for
    hides hangs. The environment keeps its documented convention
    (``0`` = none, so shells can switch it off) and a malformed value
    warns and falls back to none.
    """
    if value is not None:
        if value <= 0:
            raise ValueError(
                f"{what} must be positive (got {value!r}); "
                f"pass None for no {what}")
        return value
    env = os.environ.get(env_var, "").strip()
    if env:
        try:
            parsed = float(env)
        except ValueError:
            _warn_bad_env(env_var, env, f"no {what}")
            return None
        return parsed if parsed > 0 else None
    return None


def resolve_timeout(timeout: Optional[float]) -> Optional[float]:
    """Per-group timeout: explicit argument, else $REPRO_SWEEP_TIMEOUT."""
    return _resolve_seconds(timeout, _ENV_TIMEOUT, "timeout")


def resolve_watchdog(watchdog: Optional[float]) -> Optional[float]:
    """Per-point heartbeat watchdog: argument, else $REPRO_SWEEP_WATCHDOG.

    Workers heartbeat once per point and once per simulated phase; a
    heartbeat older than this many seconds means a *single point* is
    hung (not just a slow group), and its group is killed and retried
    immediately instead of burning the whole per-group ``timeout``.
    """
    return _resolve_seconds(watchdog, _ENV_WATCHDOG, "watchdog")


_GroupKey = Tuple[str, float, int, SystemConfig]


def _group_key(point: SweepPoint) -> _GroupKey:
    """One group per (workload, scale, seed, config).  Modes,
    sample_cores, and fault plans ride on top (faults are semantically
    invariant), so all of them share one functional trace; configs that
    share an address layout also share it through the store, but stay
    separate groups so a per-group timeout keeps its meaning."""
    return (point.workload, point.scale, point.seed, point.config)


#: Payload handed to workers: the group's points, the result-cache root
#: (or None), and the heartbeat file the worker touches (or None).
_Payload = Tuple[Sequence[SweepPoint], Optional[str], Optional[str]]


def _run_group(payload: _Payload) -> List[Tuple]:
    """Run every point of one functional group, recording at most once.

    Module-level so it pickles for ProcessPoolExecutor; all points share
    the same (workload, scale, seed, config). ``payload`` carries the
    result-cache root (or None) so workers can reuse stored functional
    traces across groups and sessions, plus the heartbeat file this
    worker touches before every point and every phase so the
    dispatcher's watchdog can tell "hung" from "slow".

    The group loads the stored functional trace of its address layout
    (:func:`~repro.workloads.build_cache.load_or_record`): a hit means
    zero functional work for the whole group, even when another group
    recorded it under different SE knobs.  On a miss it builds and
    records once, replays the trace for every point, and then stores it
    with the stream geometry the points derived
    (:func:`~repro.workloads.build_cache.save_trace`).  An uncached
    group records in memory only and writes nothing to disk.  With
    replay disabled (``$REPRO_NO_REPLAY``) points share the built
    workload.

    Returns one record per point — ``("ok", SimResult)`` or
    ``("error", stage, exc_type, message, traceback)`` — so a mid-group
    exception costs only its own point, never the group's completed work.
    """
    from repro.mem.address import AddressSpace
    from repro.sim.run import _ENV_NO_REPLAY, run_workload
    from repro.workloads import make_workload
    from repro.workloads.build_cache import load_or_record, save_trace

    points, cache_root = payload[0], payload[1]
    hb_path = payload[2] if len(payload) > 2 else None

    def _beat() -> None:
        if hb_path:
            try:
                Path(hb_path).touch()
            except OSError:
                pass  # heartbeats are best-effort, never fatal

    _beat()
    first = points[0]
    cache = ResultCache(cache_root) if cache_root is not None else None
    replay = not os.environ.get(_ENV_NO_REPLAY)
    try:
        if replay:
            source = load_or_record(first.workload, first.scale,
                                    first.seed, first.config, cache)
        else:
            source = make_workload(first.workload, scale=first.scale,
                                   seed=first.seed)
            source.build(AddressSpace(first.config))
    except Exception as exc:  # noqa: BLE001 — reported per point
        record = (_ERR, "build", type(exc).__name__, str(exc),
                  clip_traceback(traceback.format_exc()))
        return [record for _ in points]

    records: List[Tuple] = []
    for p in points:
        _beat()
        try:
            result = run_workload(source, p.mode, config=p.config,
                                  scale=p.scale, seed=p.seed,
                                  sample_cores=p.sample_cores,
                                  fault_plan=p.fault_plan,
                                  heartbeat=_beat if hb_path else None)
            records.append((_OK, result))
        except Exception as exc:  # noqa: BLE001 — reported per point
            records.append((_ERR, "run", type(exc).__name__, str(exc),
                            clip_traceback(traceback.format_exc())))

    if replay:
        # Pure bookkeeping: a failure here must never cost the group's
        # completed points.
        try:
            save_trace(source, cache)
        except Exception:  # noqa: BLE001 — best-effort persistence
            pass
    return records


#: Seconds between a pool worker's checks that its driver still lives.
_ORPHAN_POLL = 0.2


def _exit_when_orphaned(driver: int) -> None:
    """Pool initializer: end this worker once its driver process is gone.

    A forked worker holds the write end of the pool's call queue itself,
    so a SIGKILLed driver never delivers EOF and the worker would wait
    forever, reparented.  A daemon thread polls the parent pid instead
    and exits the worker the moment it changes.
    """
    def watch() -> None:
        while os.getppid() == driver:
            time.sleep(_ORPHAN_POLL)
        os._exit(1)

    threading.Thread(target=watch, name="repro-orphan-watch",
                     daemon=True).start()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, terminate live workers.

    Used after a timeout, a hang, or a broken pool — the executor may
    still hold a hung or poisoned worker, and a graceful shutdown would
    block on it.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 — teardown must not raise
        pass
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001
            pass


def _heartbeat_age(hb_path: Optional[str]) -> Optional[float]:
    """Seconds since the group's worker last heartbeat, or None if the
    heartbeat file does not exist yet (group not started / no file)."""
    if not hb_path:
        return None
    try:
        return max(0.0, time.time() - os.stat(hb_path).st_mtime)
    except OSError:
        return None


def _dispatch_parallel(payloads: List[_Payload], jobs: int,
                       timeout: Optional[float], retries: int,
                       backoff: float,
                       watchdog: Optional[float] = None,
                       on_outcome: Optional[Callable[[int, List[Tuple]],
                                                     None]] = None
                       ) -> Dict[int, List[Tuple]]:
    """Run payloads on worker pools; returns {payload index: records}.

    The dispatcher polls futures instead of blocking on each in turn, so
    it can (a) deliver every finished group to ``on_outcome`` the moment
    it lands — the journaling hook — and (b) watch worker heartbeats: a
    group whose heartbeat goes stale for ``watchdog`` seconds has a hung
    *point* and is killed immediately, without waiting out ``timeout``.

    A group whose worker crashes, times out, or hangs is retried up to
    ``retries`` extra times on a fresh pool, sleeping
    ``backoff * 2**round`` between rounds.  Groups that exhaust their
    retries yield synthetic error records (carrying the true attempt
    count), never exceptions.  Innocent groups still in flight when a
    pool must die are re-queued without being charged an attempt.

    The per-group timeout clock starts at the group's first heartbeat
    when heartbeat files are in use (a queued group waiting for a worker
    slot is not "running"); without heartbeats it falls back to the
    group's *slot-acquisition* time — the first ``workers`` groups get
    their slot at submit, every later one when an earlier group's future
    settles and frees a worker.  Charging from submit time instead (the
    old behavior) billed earlier groups' queue wait to late-scheduled
    innocents once the pool drained below ``workers`` pending groups.
    """
    # The pool machinery loads here: a serial sweep (every cached CLI
    # command) never pays for it.
    from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                    wait)
    from concurrent.futures.process import BrokenProcessPool

    outcomes: Dict[int, List[Tuple]] = {}
    attempts = {i: 0 for i in range(len(payloads))}
    queue = list(range(len(payloads)))
    round_no = 0
    poll = 0.1 if (timeout is not None or watchdog is not None) else 0.5

    def settle(i: int, records: List[Tuple]) -> None:
        outcomes[i] = records
        if on_outcome is not None:
            on_outcome(i, records)

    while queue:
        workers = min(jobs, len(queue))
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_exit_when_orphaned,
                                   initargs=(os.getpid(),))
        pending: Dict = {}
        slot_at: Dict[int, float] = {}
        start_at: Dict[int, float] = {}
        # Pool workers pick groups up in submission order, so the first
        # ``workers`` groups hold a slot immediately; the rest acquire
        # one as earlier futures settle (see the done-loop below).
        unslotted: List[int] = []
        for rank, i in enumerate(queue):
            pending[pool.submit(_run_group, payloads[i])] = i
            if rank < workers:
                slot_at[i] = time.monotonic()
            else:
                unslotted.append(i)
        requeue: List[int] = []
        pool_dead = False

        def fail(i: int, stage: str, err: str, msg: str) -> None:
            attempts[i] += 1
            if attempts[i] <= retries:
                requeue.append(i)
            else:
                settle(i, [(_ERR, stage, err, msg, "", attempts[i])
                           for _ in payloads[i][0]])

        try:
            while pending:
                done, _ = wait(list(pending), timeout=poll,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    i = pending.pop(future)
                    if unslotted:
                        # A settled future frees a worker slot; the
                        # oldest queued group inherits it now — its
                        # timeout clock must not start any earlier.
                        slot_at[unslotted.pop(0)] = time.monotonic()
                    try:
                        settle(i, future.result())
                    except BrokenProcessPool as exc:
                        fail(i, "worker-crash", type(exc).__name__,
                             str(exc) or "worker process died")
                        pool_dead = True
                    except Exception as exc:  # noqa: BLE001 — degrade
                        fail(i, "run", type(exc).__name__, str(exc))
                if pool_dead or not pending:
                    break
                now = time.monotonic()
                for future, i in list(pending.items()):
                    hb_path = (payloads[i][2]
                               if len(payloads[i]) > 2 else None)
                    age = _heartbeat_age(hb_path)
                    if age is not None and i not in start_at:
                        start_at[i] = now  # first heartbeat observed
                    if watchdog is not None and age is not None \
                            and age > watchdog:
                        pending.pop(future)
                        fail(i, "hang", "WatchdogTimeout",
                             f"no worker heartbeat for {age:.1f}s "
                             f"(watchdog {watchdog:g}s): point hung")
                        pool_dead = True
                        continue
                    # Timeout clock: from the first observed heartbeat
                    # (queue wait is not running time); when a group
                    # never heartbeats, fall back to the moment it
                    # acquired a worker slot, so a late-scheduled group
                    # is never billed for earlier groups' queue wait.
                    base = start_at.get(i)
                    if base is None:
                        base = slot_at.get(i)
                    if timeout is not None and base is not None \
                            and now - base > timeout:
                        pending.pop(future)
                        fail(i, "timeout", "TimeoutError",
                             f"group exceeded {timeout:g}s")
                        pool_dead = True
                if pool_dead:
                    break
        except BaseException:
            # Interrupt (SweepInterrupted lands here) or internal error:
            # never leave a pool of live workers behind.
            _kill_pool(pool)
            raise
        if pool_dead:
            # Innocent groups still in flight when the pool had to die
            # are re-queued without being charged an attempt.
            for future, i in pending.items():
                if i not in outcomes and i not in requeue:
                    requeue.append(i)
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        queue = requeue
        if queue:
            time.sleep(backoff * (2 ** round_no))
            round_no += 1
    return outcomes


def schedule_jobs(store: Any,
                  keys: Optional[Iterable[str]] = None,
                  jobs: Optional[int] = None,
                  timeout: Optional[float] = None,
                  retries: int = 2,
                  backoff: float = 0.5,
                  watchdog: Optional[float] = None) -> int:
    """Compute every pending point of a job store; returns how many ran.

    This is the one scheduler engine behind every frontend —
    :func:`run_sweep`, ``repro sweep``, and the ``repro serve`` daemon
    (DESIGN.md §5h).  ``store`` is a
    :class:`~repro.eval.service.jobstore.JobStore` (anything with the
    same surface works); the scheduler pulls its pending points
    (restricted to ``keys`` when given), groups them by functional key
    so every mode/knob of one (workload, scale, seed, config) shares a
    single functional trace, and dispatches the groups.  Completed and
    failed points are folded back into the store the moment they land —
    the store persists them (journal, result cache) and notifies its
    listeners, so progress is durable and observable mid-flight.

    Whenever a ``timeout`` or ``watchdog`` is armed the groups run on a
    worker pool even for ``jobs=1`` or a single group, so the
    heartbeat/deadline machinery protects *every* sweep — the old inline
    shortcut silently accepted both knobs and enforced neither.  The
    bare ``jobs=1``-and-unguarded case stays inline (no fork overhead,
    and in-process monkeypatching keeps working for tests).
    """
    todo = store.pending_points(keys)
    if not todo:
        return 0
    groups: Dict[_GroupKey, List[SweepPoint]] = {}
    for point in todo:
        groups.setdefault(_group_key(point), []).append(point)
    group_list = list(groups.values())

    cache = store.cache
    cache_root = str(cache.root) if cache is not None else None
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    watchdog = resolve_watchdog(watchdog)
    guarded = timeout is not None or watchdog is not None
    use_pool = guarded or (jobs > 1 and len(group_list) > 1)

    absorbed = set()

    def _absorb(i: int, records: List[Tuple]) -> None:
        """Fold one group's final records into the store.

        Called the moment a group's outcome is final (including after
        retries), in the scheduling process — so completed work is
        persisted and journaled even if the sweep dies before the next
        group ends.
        """
        if i in absorbed:
            return
        absorbed.add(i)
        for point, record in zip(group_list[i], records):
            if record[0] == _OK:
                store.mark_done(point.key(), record[1])
            else:
                stage, err, msg, tb = record[1:5]
                att = record[5] if len(record) > 5 else 1
                store.mark_failed(FailedPoint(
                    point=point, stage=stage, error=err, message=msg,
                    traceback=clip_traceback(tb), attempts=att))

    for point in todo:
        store.mark_running(point.key())

    hb_dir: Optional[tempfile.TemporaryDirectory] = None
    try:
        if use_pool:
            # Heartbeat files let the dispatcher tell "hung" from
            # "queued" and give the watchdog its staleness signal.
            import tempfile
            hb_dir = tempfile.TemporaryDirectory(prefix="repro-sweep-hb-")
            payloads: List[_Payload] = [
                (group, cache_root,
                 os.path.join(hb_dir.name, f"group-{i}.hb"))
                for i, group in enumerate(group_list)]
            _dispatch_parallel(payloads, jobs, timeout,
                               max(retries, 0), max(backoff, 0.0),
                               watchdog=watchdog, on_outcome=_absorb)
        else:
            for i, group in enumerate(group_list):
                payload: _Payload = (group, cache_root, None)
                try:
                    records = _run_group(payload)
                except Exception as exc:  # noqa: BLE001 — degrade
                    records = [(_ERR, "run", type(exc).__name__, str(exc),
                                clip_traceback(traceback.format_exc()))
                               for _ in group]
                _absorb(i, records)
    finally:
        if hb_dir is not None:
            hb_dir.cleanup()
    return len(todo)


def run_sweep(points: Iterable[SweepPoint],
              jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              timeout: Optional[float] = None,
              retries: int = 2,
              backoff: float = 0.5,
              journal: Optional[Union[os.PathLike, str,
                                      SweepJournal]] = None,
              resume: bool = False,
              watchdog: Optional[float] = None) -> SweepResults:
    """Run every distinct point; returns completed ``{point: SimResult}``.

    ``jobs``: worker processes (see :func:`resolve_jobs`); ``cache``: a
    :class:`ResultCache` to consult before simulating and to fill after;
    ``timeout``: per-group wall-clock budget in seconds (None → no limit,
    or ``$REPRO_SWEEP_TIMEOUT``); ``retries``: extra attempts for groups
    hit by worker crashes, hangs, or timeouts; ``backoff``: base seconds
    of the exponential retry delay; ``watchdog``: per-point heartbeat
    staleness bound (None → ``$REPRO_SWEEP_WATCHDOG``) — see
    :func:`resolve_watchdog`.

    ``journal``: a path (or :class:`~repro.eval.journal.SweepJournal`)
    to which every completed/failed point is appended the moment it
    lands, making the sweep durable against SIGKILL.  ``resume=True``
    (requires ``journal``) replays the journal and computes only the
    missing points; journaled failures are re-attempted.  While a
    journal is active, SIGINT/SIGTERM raise :class:`SweepInterrupted`
    (→ exit code 130/143) after the journal is consistent.

    Never raises for per-point failures — completed points are returned
    and failures are described on ``.failures``.  Call
    :meth:`SweepResults.raise_on_failure` for the old strict behavior.

    Since the sweep-service refactor this is a thin compatibility
    wrapper: it loads a :class:`~repro.eval.service.jobstore.JobStore`
    with the deduplicated points, satisfies what it can from the journal
    (``resume=True``) and the result cache, hands the rest to
    :func:`schedule_jobs` — the same engine the ``repro serve`` daemon
    drives — and reads the :class:`SweepResults` back out of the store.
    Results are bit-identical to the pre-refactor harness.
    """
    # Imported lazily: the jobstore module imports this module's
    # dataclasses at import time, so the dependency must stay one-way
    # at module load.
    from repro.eval.service.jobstore import JobStore

    ordered: List[SweepPoint] = []
    seen = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            ordered.append(point)

    if isinstance(journal, SweepJournal):
        journal_obj: Optional[SweepJournal] = journal
    elif journal is not None:
        journal_obj = SweepJournal(journal)
    else:
        journal_obj = None
    if resume and journal_obj is None:
        raise ValueError("resume=True requires a journal "
                         "(pass journal=<path>)")

    store = JobStore(journal=journal_obj, cache=cache)
    for point in ordered:
        store.add(point)
    resumed = store.absorb_journal() if resume else 0
    if journal_obj is not None:
        journal_obj.record_start(len(ordered), resumed=resumed)
    store.absorb_cache()

    # While a journal is active, SIGINT/SIGTERM must flush-and-exit with
    # the conventional code instead of dying however the default
    # disposition decides.  Handlers are process-global state: install
    # only in the main thread, always restore.
    installed: List[Tuple[int, Any]] = []
    if journal_obj is not None \
            and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            raise SweepInterrupted(signum)
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                installed.append((sig, _signal.signal(sig, _on_signal)))
            except (ValueError, OSError):  # pragma: no cover
                pass
    try:
        schedule_jobs(store, jobs=jobs, timeout=timeout, retries=retries,
                      backoff=backoff, watchdog=watchdog)
    finally:
        for sig, old in installed:
            try:
                _signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    return store.results_for(ordered)
