"""Chrome trace-event export: structure, spans, counters, validity."""

import json

from repro.llc.rangesync import ProtocolParams, run_protocol
from repro.trace import Tracer, chrome_trace_events, export_chrome_trace


def _traced_events(**params):
    tracer = Tracer(keep_events=True)
    run_protocol(ProtocolParams(n_chunks=4, **params), tracer=tracer,
                 label="phase/st")
    tracer.finish()
    assert tracer.ok
    return tracer.events


def test_export_writes_loadable_json(tmp_path):
    out = tmp_path / "trace.json"
    n = export_chrome_trace(_traced_events(), str(out), workload="bfs")
    assert n > 0
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["traceEvents"]
    process_meta = payload["traceEvents"][0]
    assert process_meta["ph"] == "M"
    assert process_meta["args"]["name"] == "bfs"


def test_tracks_become_named_threads():
    records = chrome_trace_events(_traced_events())
    names = [r for r in records
             if r["ph"] == "M" and r["name"] == "thread_name"]
    assert names and names[0]["args"]["name"] == "phase/st"


def test_chunk_service_becomes_complete_span():
    records = chrome_trace_events(_traced_events())
    spans = [r for r in records if r["ph"] == "X"]
    assert len(spans) == 4  # one service span per chunk
    for span in spans:
        assert span["dur"] >= 0
        assert span["name"].startswith("service chunk")


def test_credit_occupancy_becomes_counter_series():
    records = chrome_trace_events(_traced_events())
    counters = [r for r in records if r["ph"] == "C"]
    # Sampled at every credit issue and every done: 2 x n_chunks.
    assert len(counters) == 8
    assert all("outstanding" in r["args"] for r in counters)


def test_recovery_episode_becomes_span():
    from repro.llc.rangesync import (emit_recovery_schedule,
                                     resolve_recovery_schedule)
    from repro.trace.events import TRACK_RECOVERY

    tracer = Tracer(keep_events=True, sanitize=False)
    schedule = resolve_recovery_schedule(ProtocolParams(), 1e6, [1, 2])
    emit_recovery_schedule(schedule, tracer, "rec", ["ALIAS", "TLB_MISS"])
    assert tracer.events[0].args["track_kind"] == TRACK_RECOVERY
    records = chrome_trace_events(tracer.events)
    spans = [r for r in records if r["ph"] == "X"]
    assert len(spans) == 2
    assert all(span["name"] == "recovery" for span in spans)
    # episodes sit at their schedule index on the recovery track
    assert [span["ts"] for span in spans] == [0.0, 1.0]
    assert all(span["dur"] > 0 for span in spans)


def test_all_records_are_json_serializable():
    events = _traced_events(indirect_commit=True)
    json.dumps(chrome_trace_events(events))  # MessageType etc. stringified
