"""Spans around the public function of each layer, kept in memory.

Only traced runs install these wrappers.  Each wrapper replaces a name
*where its caller looks it up* (``repro.eval.experiments.run_sweep``,
not only ``repro.eval.sweep.run_sweep``) and records a span: name,
start, end, parent and op id.  Spans are plain lists so child
interpreters can hand them over as JSON:

    [name, start_ns, end_ns, parent_index, op_id, attrs]

A layer's self time is its span's duration minus the time its child
spans cover.  The per-layer metrics are self times and counts summed
over one round, plus the stage profile and fault statistics each
``SimResult`` already carries.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Artifact kinds a store entry can hold, by the class of its value.
_KIND_OF_CLASS = {"FunctionalTrace": "replay", "StatsBundle": "stats",
                  "SimResult": "result"}
KINDS = ("result", "build", "replay", "stats")

#: Profile stages reported as per-layer metrics, by metric name.
PROFILE_STAGES = {
    "sim.run.replay_ms": "run.replay",
    "sim.run.trace_load_ms": "run.trace_load",
    "sim.run.setup_ms": "run.setup",
    "sim.run.finish_ms": "run.finish",
    "sim.phase.setup_ms": "phase.setup",
    "sim.phase.stats_ms": "phase.stats",
    "sim.phase.uops_ms": "phase.uops",
    "sim.phase.locks_ms": "phase.locks",
    "sim.phase.sample_caches_ms": "phase.sample_caches",
    "sim.phase.traffic_ms": "phase.traffic",
    "sim.phase.protocol_ms": "phase.protocol",
    "sim.phase.protocol.engine_ms": "phase.protocol.engine",
    "sim.phase.timing_ms": "phase.timing",
}

#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS: Dict[str, str] = {
    "cli.python_ms": "ms", "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms", "cli.handler_ms": "ms",
    "store.key_ms": "ms", "store.key_calls": "count",
    "store.misses": "count",
    "store.quarantined": "count", "store.write_errors": "count",
    "workloads.build_ms": "ms", "workloads.builds": "count",
    "replay.record_ms": "ms", "replay.records": "count",
    "sim.run_ms": "ms", "sim.runs": "count",
    "sim.profile_coverage": "ratio",
    "fault.episodes": "count", "fault.timing_us_per_episode": "us",
    "sweep.self_ms": "ms", "sweep.groups": "count",
    "sweep.points": "count", "journal.append_ms": "ms", "journal.mb": "MB",
    "ideal.traffic_ms": "ms", "ideal.builds": "count",
    "host.calib_ms": "ms", "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
for _kind in KINDS:
    LAYER_UNITS.update({f"store.{_kind}.load_ms": "ms",
                        f"store.{_kind}.loads": "count",
                        f"store.{_kind}.read_mb": "MB",
                        f"store.{_kind}.save_ms": "ms",
                        f"store.{_kind}.saves": "count",
                        f"store.{_kind}.written_mb": "MB"})
LAYER_UNITS.update({name: "ms" for name in PROFILE_STAGES})

Span = List[Any]


class SpanRecorder:
    """Records nested spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    # ------------------------------------------------------------------
    def _patch(self, module: str, attr: str, make: Callable) -> None:
        owner_path, _, name = attr.rpartition(".")
        try:
            owner = importlib.import_module(module)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, name, functools.wraps(original)(make(original)))
        self._undo.append((owner, name, original))

    def _simple(self, name: str) -> Callable:
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> "SpanRecorder":
        """Wrap every layer's public function; idempotent per recorder."""
        if self._undo:
            return self
        rec = self

        def run_workload(original):
            def wrapper(*args, **kwargs):
                with rec.span("sim.run") as attrs:
                    result = original(*args, **kwargs)
                    attrs["stages"] = {name: t.seconds for name, t
                                       in result.profile.items()}
                    if result.faults is not None:
                        attrs["episodes"] = result.faults.recovery_episodes
                    return result
            return wrapper

        def run_sweep(original):
            def wrapper(points, *args, **kwargs):
                points = list(points)
                distinct = set(points)
                groups = {(p.workload, p.scale, p.seed, p.config)
                          for p in distinct}
                with rec.span("sweep", points=len(distinct),
                              groups=len(groups)):
                    return original(points, *args, **kwargs)
            return wrapper

        def lookup(original):
            def wrapper(cache, key):
                before = (cache.bytes_read, cache.quarantined)
                with rec.span("store.load") as attrs:
                    value = original(cache, key)
                    attrs["kind"] = _kind_of(value)
                    attrs["bytes"] = cache.bytes_read - before[0]
                    attrs["quarantined"] = cache.quarantined - before[1]
                    return value
            return wrapper

        def store(original):
            def wrapper(cache, key, value, kind="result"):
                before = (cache.bytes_written, cache.write_errors,
                          cache.quarantined)
                with rec.span("store.save", kind=kind) as attrs:
                    ok = original(cache, key, value, kind)
                    attrs["bytes"] = cache.bytes_written - before[0]
                    attrs["write_errors"] = cache.write_errors - before[1]
                    attrs["quarantined"] = cache.quarantined - before[2]
                    return ok
            return wrapper

        self._patch("repro.sim.run", "run_workload", run_workload)
        self._patch("repro.eval.experiments", "run_workload", run_workload)
        for module in ("repro.eval.sweep", "repro.eval.experiments",
                       "repro.cli"):
            self._patch(module, "run_sweep", run_sweep)
        self._patch("repro.eval.result_cache", "ResultCache.lookup", lookup)
        self._patch("repro.eval.result_cache", "ResultCache.store", store)
        for module in ("repro.eval.result_cache",
                       "repro.workloads.build_cache"):
            self._patch(module, "fingerprint", self._simple("store.key"))
        self._patch("repro.workloads.base", "Workload.build",
                    self._simple("workloads.build"))
        self._patch("repro.sim.replay", "record_trace",
                    self._simple("replay.record"))
        for method in ("record_start", "record_ok", "record_failure"):
            self._patch("repro.eval.journal", f"SweepJournal.{method}",
                        self._simple("journal.append"))
        self._patch("repro.eval.experiments", "ideal_traffic",
                    self._simple("ideal.traffic"))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def _kind_of(value: Any) -> str:
    if value is None:
        return "miss"
    cls = type(value)
    kind = _KIND_OF_CLASS.get(cls.__name__)
    if kind is not None:
        return kind
    if any(base.__name__ == "Workload" for base in cls.__mro__):
        return "build"
    return "result"


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def row_name(span: Span) -> str:
    """The breakdown row a span counts under (store spans split by kind)."""
    name, attrs = span[0], span[5]
    if name in ("store.load", "store.save"):
        return f"store.{attrs.get('kind', 'result')}.{name[6:]}"
    return name


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def breakdown(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per row: calls, self milliseconds and bytes moved."""
    rows: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(row_name(span),
                              {"calls": 0, "self_ms": 0.0, "bytes": 0})
        row["calls"] += 1
        row["self_ms"] += own / 1e6
        row["bytes"] += span[5].get("bytes", 0)
    return rows


def _has_ancestor(spans: List[Span], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one round's spans (harness probes excluded)."""
    rows = breakdown(spans)

    def row(name: str) -> Dict[str, float]:
        return rows.get(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})

    out: Dict[str, float] = {}
    for kind in KINDS:
        load, save = row(f"store.{kind}.load"), row(f"store.{kind}.save")
        out[f"store.{kind}.load_ms"] = load["self_ms"]
        out[f"store.{kind}.loads"] = load["calls"]
        out[f"store.{kind}.read_mb"] = load["bytes"] / 1e6
        out[f"store.{kind}.save_ms"] = save["self_ms"]
        out[f"store.{kind}.saves"] = save["calls"]
        out[f"store.{kind}.written_mb"] = save["bytes"] / 1e6
    out["store.misses"] = row("store.miss.load")["calls"]
    out["store.quarantined"] = sum(s[5].get("quarantined", 0)
                                   for s in spans)
    out["store.write_errors"] = sum(s[5].get("write_errors", 0)
                                    for s in spans)
    for name, calls in (("store.key", "store.key_calls"),
                        ("workloads.build", "workloads.builds"),
                        ("replay.record", "replay.records")):
        out[f"{name}_ms"] = row(name)["self_ms"]
        out[calls] = row(name)["calls"]

    runs = [s for s in spans if s[0] == "sim.run"]
    stages: Dict[str, float] = {}
    for s in runs:
        for stage, seconds in s[5].get("stages", {}).items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    out["sim.run_ms"] = row("sim.run")["self_ms"]
    out["sim.runs"] = len(runs)
    for metric, stage in PROFILE_STAGES.items():
        out[metric] = stages.get(stage, 0.0) * 1e3
    run_ns = sum(s[2] - s[1] for s in runs)
    out["sim.profile_coverage"] = (sum(stages.values()) * 1e9 / run_ns
                                   if run_ns else 0.0)
    episodes = sum(s[5].get("episodes", 0) for s in runs)
    out["fault.episodes"] = episodes
    out["fault.timing_us_per_episode"] = (
        stages.get("phase.timing", 0.0) * 1e6 / episodes if episodes
        else 0.0)

    sweeps = [s for s in spans if s[0] == "sweep"]
    out["sweep.self_ms"] = row("sweep")["self_ms"]
    out["sweep.groups"] = sum(s[5]["groups"] for s in sweeps)
    out["sweep.points"] = sum(s[5]["points"] for s in sweeps)
    out["journal.append_ms"] = row("journal.append")["self_ms"]
    out["ideal.traffic_ms"] = row("ideal.traffic")["self_ms"]
    out["ideal.builds"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "workloads.build" and _has_ancestor(spans, i,
                                                        "ideal.traffic"))
    out["cli.handler_ms"] = row("cli.handler")["self_ms"]
    return out


def coverage(spans: List[Span]) -> float:
    """Share of op time that layer spans cover (1 - op self / op total)."""
    total = sum(s[2] - s[1] for s in spans if s[0] == "op")
    uncovered = sum(own for s, own in zip(spans, self_times(spans))
                    if s[0] == "op")
    return 1.0 - uncovered / total if total else 0.0


def graft(spans: List[Span], child: List[Span], parent: int) -> None:
    """Append a child interpreter's spans under ``spans[parent]``."""
    offset = len(spans)
    for s in child:
        s = list(s)
        s[3] = parent if s[3] < 0 else s[3] + offset
        spans.append(s)


def format_breakdown(workload: str, spans: List[Span]) -> str:
    """Layer table of one round: self time, calls, share of op time."""
    rows = breakdown(spans)
    total = sum(s[2] - s[1] for s in spans if s[0] == "op") / 1e6
    lines = [f"{workload}: layer self times over one round "
             f"({total:.1f} ms of op time)",
             f"  {'layer':28s} {'self ms':>10s} {'share':>7s} {'calls':>7s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        share = row["self_ms"] / total if total else 0.0
        label = "(harness, uncovered)" if name == "op" else name
        lines.append(f"  {label:28s} {row['self_ms']:10.1f} {share:7.1%} "
                     f"{row['calls']:7d}")
    lines.append(f"  layers cover {coverage(spans):.1%} of op time")
    return "\n".join(lines)


def chrome_trace(rounds: List[List[Span]], path: str) -> int:
    """Write traced rounds as Chrome trace-event JSON; returns #events.

    One process per round and one thread per op, so the viewer shows
    each op's nested layers on its own track, as ``repro trace`` output
    opens in chrome://tracing or Perfetto.
    """
    events: List[Dict[str, Any]] = []
    origin = min((s[1] for spans in rounds for s in spans), default=0)
    for pid, spans in enumerate(rounds, start=1):
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": f"round {pid}"}})
        tids: Dict[str, int] = {}
        for s in spans:
            op = s[4] or "-"
            if op not in tids:
                tids[op] = len(tids) + 1
                events.append({"ph": "M", "pid": pid, "tid": tids[op],
                               "name": "thread_name",
                               "args": {"name": op}})
            args = {k: v for k, v in s[5].items() if k != "stages"}
            events.append({"ph": "X", "name": row_name(s), "pid": pid,
                           "tid": tids[op], "ts": (s[1] - origin) / 1e3,
                           "dur": (s[2] - s[1]) / 1e3, "args": args})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
