"""Scalar oracles: the straightforward models the runtime package's fast
paths must reproduce exactly.

None of these run in a simulation; tests and perf benches compare the
runtime code against them.

* :mod:`~tests.oracles.cache_ref` — per-access set-associative cache
  (``repro.mem.cache.CacheModel``);
* :mod:`~tests.oracles.hierarchy` — per-element private-hierarchy walk
  (``HierarchyModel.walk_elements``) and per-access shared L3
  (``SharedL3Model.access``);
* :mod:`~tests.oracles.locks` — per-window lock analysis
  (``LockModel.analyze``);
* :mod:`~tests.oracles.address` — dict-walk address translation
  (``AddressSpace.translate``);
* :mod:`~tests.oracles.ideal` — Fig 1(b)'s per-element perfect private
  cache (``repro.sim.ideal``);
* :mod:`~tests.oracles.rangesync` — the event-driven range-sync episode
  (``repro.llc.rangesync_batch``);
* :mod:`~tests.oracles.engine` — the discrete-event kernel that episode
  runs on, also used by
* :mod:`~tests.oracles.noc_detailed` — the flit-level mesh
  (``repro.noc.flow.FlowModel``).
"""
