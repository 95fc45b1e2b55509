"""Protocol trace layer: structured events, online sanitizer, metrics.

``repro.trace`` gives the range-sync protocol (§IV-B, Fig 7) a per-stream
timeline: every credit, chunk service, range report, alias check, commit,
done, fault firing and recovery episode becomes a structured
:class:`TraceEvent`. An online :class:`ProtocolSanitizer` validates the
paper's correctness invariants on every event; a
:class:`MetricsRegistry` aggregates counters/histograms that ride on
:class:`~repro.sim.results.SimResult` like the wall-clock profile does;
and :func:`export_chrome_trace` renders retained events for
``chrome://tracing`` / Perfetto.

Tracing is off by default (call sites guard on ``tracer is not None``),
always on in the test suite via ``$REPRO_TRACE`` (see
``tests/conftest.py``), and exposed to users as ``repro trace`` /
``make trace``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TRACK_PROTOCOL": "repro.trace.events",
    "TRACK_RECOVERY": "repro.trace.events",
    "UNTRACKED": "repro.trace.events",
    "EventKind": "repro.trace.events",
    "ProtocolViolation": "repro.trace.events",
    "TraceEvent": "repro.trace.events",
    "chrome_trace_events": "repro.trace.export",
    "export_chrome_trace": "repro.trace.export",
    "HistogramSummary": "repro.trace.metrics",
    "MetricsRegistry": "repro.trace.metrics",
    "TraceMetrics": "repro.trace.metrics",
    "format_metrics": "repro.trace.metrics",
    "ProtocolSanitizer": "repro.trace.sanitizer",
    "ENV_TRACE": "repro.trace.tracer",
    "Tracer": "repro.trace.tracer",
    "tracer_from_env": "repro.trace.tracer",
    "tracing_enabled": "repro.trace.tracer",
})
