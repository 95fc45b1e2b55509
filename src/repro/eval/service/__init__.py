"""Sweep service: one scheduler engine behind every frontend.

The eval layer's hard-won machinery — content-addressed result cache,
crash-proof dispatch with heartbeat watchdogs, durable journals — used
to be welded inside :func:`~repro.eval.sweep.run_sweep`.  This package
turns it into a shared long-lived service (DESIGN.md §5h):

- :mod:`~repro.eval.service.jobstore` — the job-store abstraction:
  pending/running/done/failed point records backed by the existing
  journal and result-cache envelopes, with listener hooks for progress
  events.
- :mod:`~repro.eval.service.daemon` — ``repro serve``: an asyncio job
  queue over a unix socket that accepts sweep/compare requests as JSON,
  dedups in-flight identical points by content key, schedules onto the
  same process-pool dispatcher, and streams per-point progress events.
- :mod:`~repro.eval.service.client` — the line-JSON client the CLI
  (``repro submit`` / ``repro status``) and the tests drive.

``repro sweep``, the Makefile targets, and the daemon are three
frontends on one engine (:func:`~repro.eval.sweep.schedule_jobs`);
``run_sweep(...)`` remains as a thin compatibility wrapper with
bit-identical results.
"""

from repro._lazy import lazy_exports

#: Default daemon socket path (relative to the working directory).  It
#: lives here, not in the daemon module, so building the CLI parser
#: loads no asyncio.
DEFAULT_SOCKET = ".repro-serve.sock"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DONE": "repro.eval.service.jobstore",
    "FAILED": "repro.eval.service.jobstore",
    "PENDING": "repro.eval.service.jobstore",
    "RUNNING": "repro.eval.service.jobstore",
    "JobRecord": "repro.eval.service.jobstore",
    "JobStore": "repro.eval.service.jobstore",
    "config_from_spec": "repro.eval.service.jobstore",
    "config_to_spec": "repro.eval.service.jobstore",
    "point_from_spec": "repro.eval.service.jobstore",
    "point_to_spec": "repro.eval.service.jobstore",
})
__all__ = __all__ + ["DEFAULT_SOCKET"]
