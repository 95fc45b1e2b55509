"""Durable resumable sweeps (ISSUE 9 acceptance criteria).

A sweep SIGKILLed at an arbitrary instant, restarted with
``resume=True``, must compute only the missing points and produce a
:class:`SweepResults` bit-identical (``to_dict``-equal) to an
uninterrupted run — across 3 workloads x 2 modes, serial and parallel.
SIGINT/SIGTERM must exit 130/143 with the journal flushed.

The child sweeps run in real subprocesses (the only honest way to test
kill semantics); each point is slowed slightly so the kill reliably
lands mid-sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.sim.run as run_mod
from repro.config import SystemConfig
from repro.eval.journal import SweepJournal, append_jsonl
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import SweepInterrupted, SweepPoint, run_sweep
from repro.offload.modes import ExecMode

REPO = Path(__file__).resolve().parents[2]
SCALE = 1.0 / 256.0
WORKLOADS = ("histogram", "memset", "srad")
MODES = (ExecMode.BASE, ExecMode.NS)

#: Child sweep: every point slowed by 0.2s so signals land mid-run.
#: Argv: journal path, jobs.  Prints COMPLETE only if the sweep finishes.
_CHILD = """
import sys, time
import repro.sim.run as run_mod
_real = run_mod.run_workload
def _slow(*args, **kwargs):
    time.sleep(0.2)
    return _real(*args, **kwargs)
run_mod.run_workload = _slow
from repro.config import SystemConfig
from repro.eval.sweep import SweepPoint, run_sweep
from repro.offload.modes import ExecMode
system = SystemConfig.ooo8()
points = [SweepPoint(w, m, system, scale={scale!r})
          for w in {workloads!r}
          for m in (ExecMode.BASE, ExecMode.NS)]
results = run_sweep(points, jobs=int(sys.argv[2]), journal=sys.argv[1])
assert results.ok, results.failures
print("COMPLETE", len(results))
"""


def _points():
    system = SystemConfig.ooo8()
    return [SweepPoint(w, m, system, scale=SCALE)
            for w in WORKLOADS for m in MODES]


def _spawn_child(journal: Path, jobs: int = 1) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    code = _CHILD.format(scale=SCALE, workloads=WORKLOADS)
    return subprocess.Popen(
        [sys.executable, "-c", code, str(journal), str(jobs)],
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)


def _count_runs(monkeypatch) -> list:
    """Record one entry per ``run_workload`` call from here on."""
    calls = []
    real = run_mod.run_workload

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(run_mod, "run_workload", counting)
    return calls


def _journaled_points(journal: Path) -> int:
    if not journal.exists():
        return 0
    return sum(1 for line in journal.read_bytes().splitlines()
               if b'"sweep-point"' in line)


def _wait_for_points(journal: Path, n: int, timeout: float = 120.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        have = _journaled_points(journal)
        if have >= n:
            return have
        time.sleep(0.02)
    raise AssertionError(
        f"child journaled only {_journaled_points(journal)} points "
        f"in {timeout}s")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sigkill_then_resume_is_bit_identical(tmp_path, jobs):
    """The headline acceptance: kill -9 mid-sweep, --resume, identity."""
    journal = tmp_path / "sweep.jsonl"
    child = _spawn_child(journal, jobs=jobs)
    try:
        _wait_for_points(journal, 2)
    finally:
        child.kill()  # SIGKILL: no handler, no flush, no mercy
    child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL

    points = _points()
    survived = SweepJournal(journal).load()
    assert 0 < len(survived.completed) < len(points)
    # The store is written before the journal, so a kill between the two
    # leaves a stored point with no journal line: the resume takes it
    # from the store without counting it as resumed.
    store = ResultCache(SweepJournal(journal).store_root)
    stored = {p.key() for p in points if store.lookup(p.key()) is not None}
    assert survived.completed <= stored

    uninterrupted = run_sweep(points, jobs=1)
    assert uninterrupted.ok

    # Resume must compute only the points the store lacks...
    calls = []
    real = run_mod.run_workload

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    run_mod.run_workload = counting
    try:
        resumed = run_sweep(points, jobs=1, journal=journal, resume=True)
    finally:
        run_mod.run_workload = real
    assert resumed.ok
    assert resumed.resumed == len(survived.completed)
    assert len(calls) == len(points) - len(stored)

    # ...and the merged results must be bit-identical to one clean run.
    assert resumed.to_dict() == uninterrupted.to_dict()

    # A second resume reads every point back: nothing recomputed.
    again = run_sweep(points, jobs=1, journal=journal, resume=True)
    assert again.resumed == len(points)
    assert again.to_dict() == uninterrupted.to_dict()


@pytest.mark.parametrize("signum,code", [(signal.SIGTERM, 143),
                                         (signal.SIGINT, 130)])
def test_signals_flush_journal_and_exit_conventionally(tmp_path, signum,
                                                       code):
    journal = tmp_path / "sweep.jsonl"
    child = _spawn_child(journal)
    try:
        before = _wait_for_points(journal, 1)
    except AssertionError:
        child.kill()
        raise
    child.send_signal(signum)
    out, err = child.communicate(timeout=60)
    assert child.returncode == code, (out, err)
    assert "COMPLETE" not in out  # it really died mid-sweep
    # everything journaled before the signal is still loadable
    state = SweepJournal(journal).load()
    assert len(state.completed) >= before
    assert state.corrupt == 0


def test_sweep_interrupted_carries_conventional_codes():
    for signum, code in ((signal.SIGINT, 130), (signal.SIGTERM, 143)):
        exc = SweepInterrupted(signum)
        assert isinstance(exc, SystemExit)
        assert exc.code == code and exc.exit_code == code


def test_resume_requires_a_journal():
    with pytest.raises(ValueError, match="resume=True requires"):
        run_sweep(_points()[:1], resume=True)


def test_journaled_failures_are_reattempted_on_resume(tmp_path):
    """A failure record is provisional: resume retries the point, and a
    cause that went away (full disk, dead node) heals the sweep."""
    journal = tmp_path / "sweep.jsonl"
    point = _points()[0]
    real = run_mod.run_workload

    def explode(*args, **kwargs):
        raise RuntimeError("transient outage")

    run_mod.run_workload = explode
    try:
        broken = run_sweep([point], jobs=1, journal=journal)
    finally:
        run_mod.run_workload = real
    assert not broken.ok
    state = SweepJournal(journal).load()
    assert state.failed and not state.completed

    healed = run_sweep([point], jobs=1, journal=journal, resume=True)
    assert healed.ok and point in healed
    assert not SweepJournal(journal).load().failed  # ok superseded it


def test_cache_hits_are_journaled_too(tmp_path, monkeypatch):
    """Points satisfied from the result cache still land in the journal,
    by key: a resume on the same cache takes them from it, and a resume
    on another store recomputes them."""
    point = _points()[0]
    first = run_sweep([point], jobs=1,
                      cache=ResultCache(tmp_path / "cache"))

    journal = tmp_path / "sweep.jsonl"
    run_sweep([point], jobs=1, cache=ResultCache(tmp_path / "cache"),
              journal=journal)
    assert SweepJournal(journal).load().completed == {point.key()}
    assert not SweepJournal(journal).store_root.exists()

    calls = _count_runs(monkeypatch)
    again = run_sweep([point], jobs=1, cache=ResultCache(tmp_path / "cache"),
                      journal=journal, resume=True)
    assert again.resumed == 1 and not calls
    assert again[point].to_dict() == first[point].to_dict()
    elsewhere = run_sweep([point], jobs=1, journal=journal, resume=True)
    assert elsewhere.resumed == 0 and len(calls) == 1
    assert elsewhere[point].to_dict() == first[point].to_dict()


def test_uncached_journaled_sweep_keeps_a_private_store(tmp_path,
                                                        monkeypatch):
    """Without a cache the results and traces go to <journal>.store/,
    so a resume, or a plain re-run, simulates nothing."""
    from repro.sim.replay import FunctionalTrace
    from repro.workloads.build_cache import trace_key

    journal = tmp_path / "sweep.jsonl"
    points = _points()[:2]
    first = run_sweep(points, jobs=1, journal=journal)
    store = ResultCache(tmp_path / "sweep.jsonl.store")
    assert all(store.lookup(p.key()) is not None for p in points)
    assert isinstance(store.lookup(trace_key(
        "histogram", SCALE, 42, SystemConfig.ooo8())), FunctionalTrace)

    calls = _count_runs(monkeypatch)
    again = run_sweep(points, jobs=1, journal=journal, resume=True)
    assert not calls and again.resumed == len(points)
    assert again.to_dict() == first.to_dict()
    rerun = run_sweep(points, jobs=1, journal=journal)
    assert not calls and rerun.resumed == 0
    assert rerun.to_dict() == first.to_dict()


def test_resume_recomputes_missing_and_damaged_store_entries(tmp_path,
                                                             monkeypatch):
    """A journaled point whose store entry was deleted, or byte-flipped
    (and so quarantined), is recomputed, never trusted; its group
    replays the stored trace instead of rebuilding the workload."""
    import repro.sim.replay as replay

    journal = tmp_path / "sweep.jsonl"
    points = _points()[:4]
    first = run_sweep(points, jobs=1, journal=journal)
    store = ResultCache(SweepJournal(journal).store_root)
    deleted, flipped = points[0], points[3]
    store._path(deleted.key()).unlink()
    entry = store._path(flipped.key())
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    entry.write_bytes(bytes(blob))

    calls = _count_runs(monkeypatch)
    records = []
    real_record = replay.record_trace
    monkeypatch.setattr(replay, "record_trace",
                        lambda *a, **k: records.append(1)
                        or real_record(*a, **k))
    resumed = run_sweep(points, jobs=1, journal=journal, resume=True)
    assert resumed.resumed == len(points) - 2
    assert len(calls) == 2 and not records
    assert resumed.to_dict() == first.to_dict()
    assert list(store.quarantine_root.glob(f"{flipped.key()}.*"))


def test_schema1_journal_lines_are_corrupt_and_recomputed(tmp_path,
                                                          monkeypatch):
    """A journal written before results left it (schema 1: each ok line
    a pickled result with its SHA-256) resumes by recomputing: its lines
    are counted corrupt, their payloads never read."""
    import base64
    import hashlib
    import pickle

    points = _points()[:2]
    clean = run_sweep(points, jobs=1)
    journal = tmp_path / "sweep.jsonl"
    for p in points:
        payload = pickle.dumps(clean[p], protocol=pickle.HIGHEST_PROTOCOL)
        append_jsonl(journal, {
            "kind": "sweep-point", "schema": 1, "status": "ok",
            "key": p.key(), "workload": p.workload, "mode": p.mode.value,
            "scale": p.scale, "seed": p.seed,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii")})

    calls = _count_runs(monkeypatch)
    resumed = run_sweep(points, jobs=1, journal=journal, resume=True)
    assert resumed.resumed == 0 and len(calls) == len(points)
    assert resumed.to_dict() == clean.to_dict()
    state = SweepJournal(journal).load()
    assert state.corrupt == len(points)
    assert state.completed == {p.key() for p in points}


def test_failure_records_carry_truncated_tracebacks(tmp_path):
    from repro.eval.sweep import TRACEBACK_LIMIT, clip_traceback

    journal = tmp_path / "sweep.jsonl"
    point = _points()[0]
    real = run_mod.run_workload

    def verbose_explode(*args, **kwargs):
        # padding inflates the traceback text past TRACEBACK_LIMIT; the
        # marker sits at the end, where tail-truncation must keep it
        raise RuntimeError("padding " * 500 + "bottom of a deep stack")

    run_mod.run_workload = verbose_explode
    try:
        results = run_sweep([point], jobs=1, journal=journal)
    finally:
        run_mod.run_workload = real
    (failure,) = results.failures
    assert "bottom of a deep stack" in failure.traceback
    assert len(failure.traceback) <= TRACEBACK_LIMIT + 80
    assert failure.traceback.startswith("... (truncated")
    # the journal carries the same clipped traceback
    state = SweepJournal(journal).load()
    assert state.failed[point.key()]["traceback"] == failure.traceback
    # and the helper is tail-preserving
    assert clip_traceback("short") == "short"
    clipped = clip_traceback("x" * 5000 + "TAIL")
    assert clipped.endswith("TAIL") and len(clipped) < 5000


#: Child sweep at jobs=2 whose points append the running process's pid
#: to a file (argv[1]) and then sleep, so the test learns the pool's
#: worker pids while they are busy.
_POOL_CHILD = """
import os, sys, time
import repro.sim.run as run_mod
_real = run_mod.run_workload
def _slow(*args, **kwargs):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{{os.getpid()}}\\n")
    time.sleep(0.5)
    return _real(*args, **kwargs)
run_mod.run_workload = _slow
from repro.config import SystemConfig
from repro.eval.sweep import SweepPoint, run_sweep
from repro.offload.modes import ExecMode
system = SystemConfig.ooo8()
points = [SweepPoint(w, m, system, scale={scale!r})
          for w in {workloads!r}
          for m in (ExecMode.BASE, ExecMode.NS)]
run_sweep(points, jobs=2)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_sigkilled_driver_leaves_no_pool_workers(tmp_path):
    """A jobs=2 driver killed with SIGKILL takes its pool workers with
    it: each worker notices its parent is gone and exits promptly."""
    pid_file = tmp_path / "pids"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    code = _POOL_CHILD.format(scale=SCALE, workloads=WORKLOADS)
    child = subprocess.Popen([sys.executable, "-c", code, str(pid_file)],
                             cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    workers = set()
    try:
        deadline = time.monotonic() + 120.0
        while len(workers) < 2 and time.monotonic() < deadline:
            if pid_file.exists():
                workers = {int(line) for line in
                           pid_file.read_text().split()} - {child.pid}
            time.sleep(0.05)
        assert len(workers) == 2, f"saw worker pids {sorted(workers)}"
    finally:
        child.kill()
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL

    deadline = time.monotonic() + 15.0
    left = set(workers)
    while left and time.monotonic() < deadline:
        left = {pid for pid in left if _alive(pid)}
        time.sleep(0.1)
    for pid in left:  # never leak them past the test, even on failure
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert not left, f"pool workers {sorted(left)} outlived their driver"
