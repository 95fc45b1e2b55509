"""The sweep journal: durable append, paranoid replay (DESIGN.md §5g)."""

import json

import pytest

from repro.config import SystemConfig
from repro.eval.journal import (JOURNAL_SCHEMA, KIND_POINT, STATUS_ERROR,
                                SweepJournal, append_jsonl, iter_jsonl)
from repro.eval.sweep import FailedPoint, SweepPoint
from repro.offload.modes import ExecMode


def _point(workload="histogram", mode=ExecMode.NS):
    return SweepPoint(workload, mode, SystemConfig.ooo8(),
                      scale=1.0 / 256.0)


def test_ok_round_trip_is_bit_identical(tmp_path):
    """An ok line holds the point's identity, exactly, and nothing else:
    the result lives in the store."""
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    point = _point()
    journal.record_ok(point)
    state = journal.load()
    assert state.completed == {point.key()}
    assert state.corrupt == 0 and not state.failed
    line = path.read_bytes()
    assert len(line) < 300
    assert json.loads(line) == {
        "kind": KIND_POINT, "schema": JOURNAL_SCHEMA, "status": "ok",
        "key": point.key(), "workload": "histogram", "mode": "ns",
        "scale": 1.0 / 256.0, "seed": 42}


def test_start_records_and_appended_counter(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    assert not journal.exists()
    journal.record_start(4)
    journal.record_ok(_point())
    assert journal.exists()
    assert journal.appended == 2
    assert journal.load().starts == 1


def test_failure_round_trip_and_later_ok_wins(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    journal.record_failure(FailedPoint(
        point=point, stage="timeout", error="TimeoutError",
        message="group exceeded 5s", traceback="tb...", attempts=3))
    state = journal.load()
    assert state.failed[point.key()]["stage"] == "timeout"
    assert state.failed[point.key()]["attempts"] == 3
    # a retry (or resumed run) later completes the same point: ok wins
    journal.record_ok(point)
    state = journal.load()
    assert state.completed == {point.key()}
    assert point.key() not in state.failed


def test_ok_shields_against_stale_failures(tmp_path):
    """An ok record earlier in the file beats a later failure record too
    (a resumed run that re-attempted and failed a flaky point must not
    un-complete it)."""
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    journal.record_ok(point)
    journal.record_failure(FailedPoint(
        point=point, stage="run", error="RuntimeError", message="flake"))
    state = journal.load()
    assert state.completed == {point.key()}
    assert not state.failed


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    journal.record_ok(_point())
    with open(path, "ab") as fh:  # a crash mid-append tears the line
        fh.write(b'{"kind": "sweep-point", "schema": 2, "status": "ok"')
    state = journal.load()
    assert len(state.completed) == 1
    assert state.corrupt == 0  # a torn line never parses: not counted


def test_foreign_schema_and_keyless_lines_are_corrupt(tmp_path):
    """Lines of another journal schema (schema 1 carried a pickled
    result) and point lines without a key are counted, not adopted."""
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    point, old = _point(mode=ExecMode.NS), _point(mode=ExecMode.BASE)
    journal.record_ok(point)
    record = json.loads(path.read_text())
    schema1 = dict(record, key=old.key(), schema=1, sha256="0" * 64,
                   payload="gASVBAAAAAAAAACMAXiULg==")
    no_key = {k: v for k, v in record.items() if k != "key"}
    with open(path, "a") as fh:
        for bad in (schema1, no_key):
            fh.write(json.dumps(bad) + "\n")
    state = journal.load()
    assert state.completed == {point.key()}
    assert state.corrupt == 2


@pytest.mark.parametrize("attempts", ["two", [1], float("inf")],
                         ids=["text", "list", "infinity"])
def test_malformed_failure_attempts_are_corrupt(tmp_path, attempts):
    """A failure line whose attempt count is no number is counted and
    skipped; the lines around it still load."""
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    before, bad, after = (_point(mode=m) for m in (
        ExecMode.BASE, ExecMode.NS, ExecMode.INST))
    journal.record_ok(before)
    append_jsonl(path, {"kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
                        "status": STATUS_ERROR, "key": bad.key(),
                        "stage": "run", "attempts": attempts})
    journal.record_failure(FailedPoint(
        point=after, stage="timeout", error="TimeoutError", message="slow",
        attempts=2))
    state = journal.load()
    assert state.corrupt == 1
    assert state.completed == {before.key()}
    assert set(state.failed) == {after.key()}
    assert state.failed[after.key()]["attempts"] == 2


def test_foreign_and_unknown_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    journal.record_ok(_point())
    with open(path, "a") as fh:
        # a foreign record sharing the file: skipped silently
        fh.write(json.dumps({"kind": "sweep", "seconds": 1.2}) + "\n")
        # JSON that is not an object, and plain text: skipped silently
        fh.write("[1, 2, 3]\n")
        fh.write("plain text garbage\n")
        # a point record with an unknown status: counted corrupt
        fh.write(json.dumps({"kind": KIND_POINT,
                             "schema": JOURNAL_SCHEMA, "key": "k2",
                             "status": "maybe"}) + "\n")
    state = journal.load()
    assert len(state.completed) == 1
    assert state.corrupt == 1


def test_missing_journal_loads_empty(tmp_path):
    state = SweepJournal(tmp_path / "absent.jsonl").load()
    assert len(state) == 0
    assert state.corrupt == 0


def test_iter_jsonl_missing_file_yields_nothing(tmp_path):
    assert list(iter_jsonl(tmp_path / "absent.jsonl")) == []


def test_iter_jsonl_skips_torn_and_foreign_lines(tmp_path):
    """Only JSON objects come back; the ``kind`` filter is the reader's."""
    path = tmp_path / "torn.jsonl"
    append_jsonl(path, {"kind": "sweep", "seconds": 1.0})
    with open(path, "a") as fh:
        fh.write('{"kind": "profile", "truncat')  # torn mid-record
        fh.write("\n")
        fh.write("[1, 2, 3]\n")                   # JSON but not an object
        fh.write('{"no_kind": true}\n')           # an object all the same
        fh.write("plain text garbage\n")
    append_jsonl(path, {"kind": "profile", "seconds": 2.0})
    assert list(iter_jsonl(path)) == [
        {"kind": "sweep", "seconds": 1.0},
        {"no_kind": True},
        {"kind": "profile", "seconds": 2.0},
    ]


def test_concurrent_appenders_never_tear_a_line(tmp_path):
    """Many threads appending multi-KB lines to one journal: every
    record lands intact."""
    import threading

    from repro.eval.sweep import clip_traceback

    path = tmp_path / "j.jsonl"
    n_threads, per_thread = 8, 25
    points = {(t, i): SweepPoint("histogram", ExecMode.NS,
                                 SystemConfig.ooo8(), scale=1.0 / 256.0,
                                 seed=t * per_thread + i)
              for t in range(n_threads) for i in range(per_thread)}
    for point in points.values():
        point.key()  # hash the config before the race, not during it

    def traceback_of(t, i):
        return clip_traceback(f"frame {t}/{i}\n" * 300)  # ~2 KB, clipped

    def writer(tid):
        journal = SweepJournal(path)
        for i in range(per_thread):
            journal.record_failure(FailedPoint(
                point=points[tid, i], stage="run", error="RuntimeError",
                message=f"boom {i}", traceback=traceback_of(tid, i),
                attempts=i + 1))

    threads = [threading.Thread(target=writer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert min(len(line) for line in path.read_bytes().splitlines()) > 2000
    state = SweepJournal(path).load()
    assert state.corrupt == 0
    assert state.failed == {
        p.key(): {"stage": "run", "error": "RuntimeError",
                  "message": f"boom {i}", "traceback": traceback_of(t, i),
                  "attempts": i + 1}
        for (t, i), p in points.items()}


def test_truncated_multibyte_tail_is_skipped(tmp_path):
    """A writer killed mid-UTF-8-sequence loses one line, not the file."""
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    first, failed, last = (_point(mode=m) for m in (
        ExecMode.BASE, ExecMode.NS, ExecMode.INST))
    journal.record_ok(first)
    line = json.dumps({"kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
                       "status": "error", "key": failed.key(),
                       "message": "snow\u2603man"},
                      ensure_ascii=False).encode() + b"\n"
    with open(path, "ab") as fh:
        fh.write(line)           # intact non-ASCII record
    journal.record_ok(last)
    with open(path, "ab") as fh:
        fh.write(line[:-8])      # torn tail, cut inside the 3-byte rune

    state = journal.load()
    assert state.completed == {first.key(), last.key()}
    assert state.failed[failed.key()]["message"] == "snow\u2603man"
    assert state.corrupt == 0


def test_raw_invalid_utf8_line_is_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    before, after = _point(mode=ExecMode.BASE), _point(mode=ExecMode.NS)
    journal.record_ok(before)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe garbage bytes \x80\n")
    journal.record_ok(after)
    state = journal.load()
    assert state.completed == {before.key(), after.key()}
    assert state.corrupt == 0
