"""LLC-side stream machinery.

* :mod:`~repro.llc.se_l3` — the L3-bank stream engine: stream table and
  buffer capacity, issue rates, scalar PE vs SCM dispatch, and migration
  accounting across banks.
* :mod:`~repro.llc.rangesync` — the range-based synchronization protocol
  (§IV-B, Fig 7) at chunk granularity: credits, ranges, commits,
  writebacks, done messages, and precise-state recovery episodes.
* :mod:`~repro.llc.rangesync_batch` — the protocol engine: a flat
  per-episode recurrence untraced, a heap replay traced, both
  bit-identical to the event-driven oracle in ``tests/oracles``.
* :mod:`~repro.llc.arbiter` — round-robin issue among the streams a bank
  serves concurrently (§IV-B "Streams are issued round-robin").
* :mod:`~repro.llc.indirect` — efficient indirection support (§IV-C):
  intra-stream ordering checks, the indirect-reduction multicast collection,
  and the glue from atomic traces to the lock models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ArbiterStream": "repro.llc.arbiter",
    "RoundRobinArbiter": "repro.llc.arbiter",
    "SEL3Model": "repro.llc.se_l3",
    "ProtocolParams": "repro.llc.rangesync",
    "ProtocolResult": "repro.llc.rangesync",
    "RecoveryResult": "repro.llc.rangesync",
    "run_protocol": "repro.llc.rangesync",
    "run_protocol_batch": "repro.llc.rangesync",
    "run_recovery": "repro.llc.rangesync",
    "IndirectOrdering": "repro.llc.indirect",
    "indirect_reduction_messages": "repro.llc.indirect",
})
