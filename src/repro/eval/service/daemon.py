"""``repro serve``: a long-lived sweep daemon over a unix socket.

The daemon is the third frontend on the one scheduler engine
(:func:`~repro.eval.sweep.schedule_jobs`), next to :func:`run_sweep`
and ``repro sweep``.  It holds a single shared
:class:`~repro.eval.service.jobstore.JobStore` for its whole lifetime,
so every client benefits from every other client's completed work:

- **Protocol**: newline-delimited JSON over a unix socket, one request
  per connection (``ping`` / ``status`` / ``submit`` / ``events`` /
  ``result`` / ``trace`` / ``shutdown``).  Sweep and compare requests
  carry point specs (see :func:`~repro.eval.service.jobstore
  .point_from_spec`); replies are single JSON lines, except streaming
  ops which emit one event line per progress step and a final ``done``
  line.
- **In-flight dedup**: points are keyed by the same content hash as the
  result cache.  A submitted point that is already running (for any
  client) is *not* recomputed — the new job simply waits for the shared
  record to turn terminal, and both clients see the identical result.
- **Scheduling**: each job's newly-claimed points run on a scheduler
  thread driving :func:`schedule_jobs` with the daemon's process-pool
  dispatcher, heartbeats, watchdog, and retries — exactly the machinery
  ``run_sweep`` uses, so results are bit-identical across frontends.
- **Durability**: with ``--journal`` every terminal point lands on disk
  the moment it completes.  A SIGKILLed daemon restarted on the same
  journal adopts every journaled result on resubmission (zero
  divergence, zero recompute); with ``--event-log`` the progress stream
  itself is durable, and a reconnecting client resumes it from any
  sequence number.
- **Client disconnects are harmless**: jobs run on daemon-side threads;
  a dropped connection never cancels work.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.eval.journal import EventLog, SweepJournal
from repro.eval.result_cache import ResultCache
from repro.eval.service import DEFAULT_SOCKET
from repro.eval.service.jobstore import (DONE, FAILED, ORIGIN_JOURNAL,
                                         PENDING, RUNNING, JobStore,
                                         point_from_spec)
from repro.eval.sweep import (FailedPoint, SweepPoint, clip_traceback,
                              schedule_jobs)
from repro.offload.modes import ExecMode


def _run_traced(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side body of a ``trace`` request (module-level: pickles).

    Runs one workload under a collecting (non-strict) tracer and
    returns a JSON-able digest — cycles, sanitizer checks, violations —
    mirroring what ``repro trace`` prints.
    """
    from repro.sim.run import run_workload
    from repro.trace import Tracer

    point = point_from_spec(spec)
    tracer = Tracer(strict=False, keep_events=False)
    result = run_workload(point.workload, point.mode, config=point.config,
                          scale=point.scale, seed=point.seed,
                          sample_cores=point.sample_cores,
                          tracer=tracer)
    return {"workload": point.workload, "mode": point.mode.value,
            "scale": point.scale, "seed": point.seed,
            "cycles": result.cycles,
            "events": tracer.n_events,
            "checks": int(tracer.sanitizer.checks),
            "violations": [str(v) for v in tracer.violations]}


@dataclass
class _Job:
    """One client submission: which keys it covers, which it computes."""

    id: str
    points: List[SweepPoint]
    keys: List[str]
    claimed: List[str]
    verbose: bool = False
    options: Dict[str, Any] = field(default_factory=dict)
    created: float = field(default_factory=time.time)


class SweepDaemon:
    """The ``repro serve`` process: asyncio frontend, threaded engine."""

    def __init__(self,
                 socket_path: Union[os.PathLike, str] = DEFAULT_SOCKET,
                 journal: Optional[Union[os.PathLike, str,
                                         SweepJournal]] = None,
                 cache: Optional[ResultCache] = None,
                 event_log: Optional[Union[os.PathLike, str,
                                           EventLog]] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 watchdog: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.5) -> None:
        self.socket_path = Path(socket_path)
        if isinstance(journal, SweepJournal) or journal is None:
            self.journal: Optional[SweepJournal] = journal
        else:
            self.journal = SweepJournal(journal)
        if isinstance(event_log, EventLog) or event_log is None:
            self.event_log: Optional[EventLog] = event_log
        else:
            self.event_log = EventLog(event_log)
        self.cache = cache
        self.defaults = {"jobs": jobs, "timeout": timeout,
                         "watchdog": watchdog, "retries": retries,
                         "backoff": backoff}

        self.store = JobStore(journal=self.journal, cache=self.cache)
        self.store.subscribe(self._on_store_event)

        # Journal recovery: everything a previous daemon (or CLI sweep
        # on the same journal) completed is adopted on resubmission —
        # the restart-resume path after a SIGKILL.
        self._recovered: Dict[str, Any] = {}
        if self.journal is not None and self.journal.exists():
            self._recovered = dict(self.journal.load().completed)

        # Event stream: seq-numbered, in-memory for fast replay, and —
        # when an event log is configured — durable across restarts.
        self._elock = threading.Lock()
        self.events: List[Dict[str, Any]] = (
            self.event_log.load() if self.event_log is not None
            and self.event_log.exists() else [])
        self._seq = self.events[-1]["seq"] if self.events else 0

        self._jobs: Dict[str, _Job] = {}
        # In-flight claims: point key -> job id of the scheduler thread
        # computing it.  Invariant: only non-terminal records are
        # claimed — a claim is released the instant its point lands, so
        # a resubmitted FAILED point can always be re-armed.
        self._claimed: Dict[str, str] = {}
        self._job_counter = 0
        self._started = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flag: Optional[asyncio.Event] = None
        self._stop: Optional[asyncio.Event] = None
        self._trace_pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def _publish(self, record: Dict[str, Any]) -> None:
        """Append one event (thread-safe) and wake every streamer."""
        with self._elock:
            self._seq += 1
            event = {"seq": self._seq, "ts": round(time.time(), 6),
                     **record}
            self.events.append(event)
            if self.event_log is not None:
                try:
                    self.event_log.append(event)
                except OSError:
                    pass  # the durable copy is best-effort
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._wake)
            except RuntimeError:  # pragma: no cover — loop shut down
                pass

    def _wake(self) -> None:
        flag, self._flag = self._flag, asyncio.Event()
        if flag is not None:
            flag.set()

    def _on_store_event(self, payload: Dict[str, Any]) -> None:
        if payload.get("event") in ("point-done", "point-failed"):
            # Terminal: the claim has done its job (the scheduler thread
            # folding this outcome still holds the store lock upstream,
            # so this release is ordered before any new submission).
            with self.store.lock:
                self._claimed.pop(payload.get("key"), None)
        self._publish(payload)

    def _events_after(self, seq: int) -> List[Dict[str, Any]]:
        with self._elock:
            # Events are append-only and seq is monotonically increasing,
            # so a binary scan from the tail would do; linear is fine at
            # service scale.
            return [e for e in self.events if e["seq"] > seq]

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def _accept(self, points: List[SweepPoint], verbose: bool,
                options: Dict[str, Any]) -> _Job:
        """Register a submission against the shared store (dedup here).

        Under one store lock: add records, adopt journal-recovered
        results, re-arm failed records for a retry, satisfy what the
        result cache has, then claim whatever is left that no other
        job is already computing.
        """
        with self.store.lock:
            self._job_counter += 1
            job_id = f"job-{self._job_counter}"
            records = [self.store.add(p) for p in points]
            keys = [r.key for r in records]

            resumed = 0
            for record in records:
                if record.state == PENDING \
                        and record.key in self._recovered:
                    self.store.mark_done(record.key,
                                         self._recovered.pop(record.key),
                                         origin=ORIGIN_JOURNAL)
                    resumed += 1
            for record in records:
                if record.state == FAILED \
                        and record.key not in self._claimed:
                    self.store.reset(record.key)
            cached = self.store.absorb_cache(
                [r.key for r in records if r.state == PENDING])

            inflight = sum(
                1 for r in records
                if r.state == RUNNING
                or (r.state == PENDING and r.key in self._claimed))
            claimed = []
            for record in records:
                if record.state == PENDING \
                        and record.key not in self._claimed \
                        and record.key not in claimed:
                    claimed.append(record.key)
            for key in claimed:
                self._claimed[key] = job_id

            job = _Job(id=job_id, points=list(points), keys=keys,
                       claimed=claimed, verbose=verbose, options=options)
            self._jobs[job_id] = job
        self._publish({"event": "job-accepted", "job": job.id,
                       "total": len(points), "new": len(claimed),
                       "inflight": inflight, "resumed": resumed,
                       "cached": cached})
        if claimed:
            thread = threading.Thread(target=self._run_job, args=(job,),
                                      name=f"repro-{job.id}", daemon=True)
            thread.start()
        return job

    def _run_job(self, job: _Job) -> None:
        """Scheduler-thread body: drive the engine over the job's claim."""
        options = dict(self.defaults)
        for knob in ("jobs", "timeout", "watchdog"):
            if job.options.get(knob) is not None:
                options[knob] = job.options[knob]
        try:
            schedule_jobs(self.store, keys=job.claimed,
                          jobs=options["jobs"], timeout=options["timeout"],
                          watchdog=options["watchdog"],
                          retries=options["retries"],
                          backoff=options["backoff"])
        except Exception as exc:  # noqa: BLE001 — a job never kills the daemon
            tb = clip_traceback(traceback.format_exc())
            for key in job.claimed:
                if self.store.state(key) in (PENDING, RUNNING):
                    record = self.store.record(key)
                    self.store.mark_failed(FailedPoint(
                        point=record.point, stage="scheduler",
                        error=type(exc).__name__, message=str(exc),
                        traceback=tb))
        finally:
            # Safety net for claims the terminal-event release missed
            # (e.g. a scheduler crash before an outcome could land):
            # only this job's own claims, never a newer job's re-claim.
            with self.store.lock:
                for key in job.claimed:
                    if self._claimed.get(key) == job.id:
                        del self._claimed[key]

    def _job_done(self, job: _Job) -> bool:
        return all(self.store.state(k) in (DONE, FAILED)
                   for k in job.keys)

    def _job_counts(self, job: _Job) -> Dict[str, int]:
        counts = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for key in job.keys:
            state = self.store.state(key)
            if state is not None:
                counts[state] += 1
        return counts

    def _job_results(self, job: _Job) -> Dict[str, Any]:
        with self.store.lock:
            results = self.store.results_for(job.points)
            payload = results.to_dict(verbose=job.verbose)
        payload["resumed"] = results.resumed
        return payload

    def _relevant(self, event: Dict[str, Any], job: _Job,
                  keyset: Set[str]) -> bool:
        return event.get("job") == job.id or event.get("key") in keyset

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One request per connection; a dropped client never raises."""
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line.decode("utf-8",
                                                 errors="replace"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                await self._send(writer, {"ok": False,
                                          "error": f"bad request: {exc}"})
                return
            op = request.get("op")
            handler = {
                "ping": self._op_ping,
                "status": self._op_status,
                "submit": self._op_submit,
                "events": self._op_events,
                "result": self._op_result,
                "trace": self._op_trace,
                "shutdown": self._op_shutdown,
            }.get(op)
            if handler is None:
                await self._send(writer, {
                    "ok": False,
                    "error": f"unknown op {op!r} (want ping/status/"
                             f"submit/events/result/trace/shutdown)"})
                return
            await handler(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; jobs keep running
        except asyncio.CancelledError:  # pragma: no cover — shutdown
            raise
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — teardown must not raise
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    obj: Dict[str, Any]) -> None:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()

    async def _op_ping(self, request: Dict[str, Any],
                       writer: asyncio.StreamWriter) -> None:
        await self._send(writer, {"ok": True, "pid": os.getpid(),
                                  "socket": str(self.socket_path)})

    async def _op_status(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        with self.store.lock:
            jobs = []
            for job in self._jobs.values():
                counts = self._job_counts(job)
                jobs.append({"id": job.id, "total": len(job.keys),
                             **counts,
                             "active": not self._job_done(job)})
            payload = {"ok": True, "pid": os.getpid(),
                       "uptime_s": round(time.time() - self._started, 3),
                       "counts": self.store.counts(),
                       "jobs": jobs, "seq": self._seq,
                       "journal": (str(self.journal.path)
                                   if self.journal else None),
                       "event_log": (str(self.event_log.path)
                                     if self.event_log else None),
                       "cache": (str(self.cache.root)
                                 if self.cache else None)}
        await self._send(writer, payload)

    def _expand_points(self, request: Dict[str, Any]) -> List[SweepPoint]:
        """Sweep/compare expansion: explicit specs or workload×mode."""
        if request.get("points"):
            return [point_from_spec(s) for s in request["points"]]
        workloads = request.get("workloads") or []
        if not workloads:
            raise ValueError("submit needs 'points' or 'workloads'")
        if request.get("kind") == "compare":
            modes = [m.value for m in ExecMode]
        else:
            modes = request.get("modes") or ["base", "ns"]
        base = {"scale": request.get("scale", 1.0 / 64.0),
                "seed": request.get("seed", 42),
                "config": request.get("config")}
        return [point_from_spec({**base, "workload": w, "mode": m})
                for w in workloads for m in modes]

    async def _op_submit(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        try:
            points = self._expand_points(request)
            # Dedup inside the submission itself (first occurrence wins),
            # mirroring run_sweep's behavior.
            unique, seen = [], set()
            for point in points:
                if point not in seen:
                    seen.add(point)
                    unique.append(point)
        except (ValueError, KeyError, TypeError) as exc:
            await self._send(writer, {"ok": False, "error": str(exc)})
            return
        seq_before = self._seq
        job = self._accept(unique, bool(request.get("verbose")),
                           {k: request.get(k)
                            for k in ("jobs", "timeout", "watchdog")})
        header = {"ok": True, "job": job.id, "total": len(job.keys),
                  "new": len(job.claimed), "seq": seq_before}
        await self._send(writer, header)
        if not request.get("follow", True):
            return
        await self._stream_job(writer, job, seq_before)

    async def _stream_job(self, writer: asyncio.StreamWriter, job: _Job,
                          after: int) -> None:
        keyset = set(job.keys)
        while True:
            batch = self._events_after(after)
            for event in batch:
                if self._relevant(event, job, keyset):
                    await self._send(writer, event)
            if batch:
                after = batch[-1]["seq"]
            if self._job_done(job) and not self._events_after(after):
                break
            flag = self._flag
            await flag.wait()
        await self._send(writer, {"done": True, "job": job.id,
                                  "results": self._job_results(job)})

    async def _op_events(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        """Replay the event stream from ``since``; optionally follow.

        With a ``job``, the stream is filtered to that job and —
        when following — terminates with its ``done`` line, which is
        how a reconnecting client resumes exactly where it left off.
        """
        after = int(request.get("since", 0) or 0)
        follow = bool(request.get("follow", False))
        job_id = request.get("job")
        job = self._jobs.get(job_id) if job_id else None
        if job_id and job is None:
            await self._send(writer, {"ok": False,
                                      "error": f"unknown job {job_id!r}"})
            return
        keyset = set(job.keys) if job is not None else set()
        if job is not None and follow:
            await self._stream_job(writer, job, after)
            return
        for event in self._events_after(after):
            if job is None or self._relevant(event, job, keyset):
                await self._send(writer, event)
            after = max(after, event["seq"])
        if not follow:
            await self._send(writer, {"done": True, "seq": after})
            return
        while True:  # firehose-follow: until the client goes away
            flag = self._flag
            await flag.wait()
            for event in self._events_after(after):
                await self._send(writer, event)
                after = event["seq"]

    async def _op_result(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = self._jobs.get(request.get("job"))
        if job is None:
            await self._send(writer, {
                "ok": False,
                "error": f"unknown job {request.get('job')!r}"})
            return
        job.verbose = bool(request.get("verbose", job.verbose))
        done = self._job_done(job)
        payload = {"ok": True, "job": job.id, "done": done,
                   "counts": self._job_counts(job)}
        if done:
            payload["results"] = self._job_results(job)
        await self._send(writer, payload)

    async def _op_trace(self, request: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        if self._trace_pool is None:
            self._trace_pool = ProcessPoolExecutor(max_workers=1)
        try:
            digest = await asyncio.get_event_loop().run_in_executor(
                self._trace_pool, _run_traced, request)
        except Exception as exc:  # noqa: BLE001 — reply, don't die
            await self._send(writer, {"ok": False,
                                      "error": f"{type(exc).__name__}: "
                                               f"{exc}"})
            return
        await self._send(writer, {"ok": True, **digest})

    async def _op_shutdown(self, request: Dict[str, Any],
                           writer: asyncio.StreamWriter) -> None:
        self._publish({"event": "daemon-stop", "pid": os.getpid()})
        await self._send(writer, {"ok": True, "bye": True})
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _claim_socket(self) -> None:
        """Unlink a stale socket file; refuse to shadow a live daemon."""
        if not self.socket_path.exists():
            return
        import socket as _socket
        probe = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        probe.settimeout(0.5)
        try:
            probe.connect(str(self.socket_path))
        except OSError:
            self.socket_path.unlink()  # stale: previous daemon died
        else:
            raise RuntimeError(
                f"a daemon is already listening on {self.socket_path}")
        finally:
            probe.close()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._flag = asyncio.Event()
        self._stop = asyncio.Event()
        self._claim_socket()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path))
        self._publish({"event": "daemon-start", "pid": os.getpid(),
                       "recovered": len(self._recovered)})
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self._trace_pool is not None:
                self._trace_pool.shutdown(wait=False)
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Run the daemon until ``shutdown`` (or KeyboardInterrupt)."""
        asyncio.run(self._serve())
