"""One stored functional trace per workload and address layout.

The functional pass — Kronecker generators, functional executions (BFS
levels, PageRank sweeps) and kernel compilation — is a real cost at
paper scale, and it is deterministic in (workload kind, scale, seed,
address layout).  The layout (:attr:`SystemConfig.layout
<repro.config.SystemConfig.layout>`: mesh dims, page sizes, huge pages)
is all of the machine config that can move an address, so one recorded
:class:`~repro.sim.replay.FunctionalTrace` serves every mode, timing
knob, SE knob and fault plan on that layout.  Its derived stream
geometry is pure in the same inputs and travels inside the same entry.

Entries live in the same ``.repro_cache/`` store as simulation results
(:mod:`repro.eval.result_cache`, envelope kind ``"replay"``), under keys
that mix in the workload's class identity and the build/replay schema
versions, so result and trace entries can never collide and semantics
changes invalidate cleanly.
"""

from __future__ import annotations

import pickle
import warnings
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.config import AddressLayout, SystemConfig
from repro.eval.result_cache import KIND_REPLAY, ResultCache, fingerprint
from repro.mem.address import AddressSpace
from repro.sim.profiler import Profiler
from repro.workloads.base import _registry

#: Bump when Workload.build semantics change (trace layout, allocation
#: order, functional execution) in a way that invalidates stored traces.
BUILD_SCHEMA = 1

#: The one trace this process last loaded from a store: (store root,
#: trace key, entry identity, trace).  :func:`load_or_record` returns it
#: again while all three still match, and drops it before any other
#: lookup, so it never keeps two decoded traces alive.
_last_loaded: Optional[Tuple[Path, str, Tuple[int, int, int], object]] = None


def trace_key(name: str, scale: float, seed: int,
              config: Union[SystemConfig, AddressLayout]) -> str:
    """Content hash identifying one workload's functional trace.

    Only the config's address layout participates: two configs that
    differ in any other field (core, caches, NoC links, SE knobs) share
    one trace.
    """
    from repro.sim.replay import REPLAY_SCHEMA
    cls = _registry().get(name)
    layout = config if isinstance(config, AddressLayout) else config.layout
    return fingerprint({
        "kind": "functional-trace",
        "schema": BUILD_SCHEMA,
        "replay_schema": REPLAY_SCHEMA,
        "workload": name,
        "class": f"{cls.__module__}.{cls.__qualname__}" if cls else name,
        "scale": scale,
        "seed": seed,
        "layout": layout,
    })


def load_or_record(name: str, scale: float, seed: int,
                   config: SystemConfig,
                   cache: Optional[ResultCache],
                   profiler: Optional[Profiler] = None):
    """The workload's :class:`~repro.sim.replay.FunctionalTrace` for the
    layout of ``config``: loaded from ``cache``, else built and recorded.

    Anything under the key that is not a schema-current trace of this
    workload is a miss — corruption is already quarantined by the store
    layer.  A recorded trace is not stored here: :func:`save_trace`
    writes it once a run has derived its stream geometry, so the one
    entry holds both.  ``cache=None`` never touches a store.  Stages
    land on ``profiler``: ``run.replay`` (lookup), ``run.build`` and
    ``run.record``.

    The trace this process last *loaded* is remembered with its store
    root, key and entry identity (:meth:`ResultCache.entry_identity`).
    The next call for that key and store, while the entry keeps that
    identity, returns the same object without reading or decoding
    anything (its ``geometry_for`` memo comes along) and counts one
    ``cache.hits`` without adding to ``bytes_read``.  A rewritten,
    quarantined or deleted entry changes the identity, so that call does
    a real lookup; any other call drops the remembered trace before its
    lookup.  Recorded traces are never remembered.
    """
    global _last_loaded
    from repro.sim.replay import REPLAY_SCHEMA, FunctionalTrace, \
        record_trace
    from repro.workloads import make_workload
    prof = profiler if profiler is not None else Profiler()
    if cache is not None:
        with prof.stage("run.replay"):
            key = trace_key(name, scale, seed, config)
            # Taken before the read: an entry rewritten in between costs
            # one more lookup later, never a stale reuse.
            identity = cache.entry_identity(key)
            # One read of an immutable tuple: sweep-service threads share
            # the memo, and however they interleave, a match is a trace
            # its entry served.
            memo = _last_loaded
            if memo is not None and memo[:3] == (cache.root, key, identity):
                cache.hits += 1
                return memo[3]
            _last_loaded = memo = None
            cached = cache.lookup(key)
        if isinstance(cached, FunctionalTrace) \
                and cached.schema == REPLAY_SCHEMA \
                and cached.workload == name:
            if identity is not None:
                _last_loaded = (cache.root, key, identity, cached)
            return cached
    with prof.stage("run.build"):
        wl = make_workload(name, scale=scale, seed=seed)
        wl.build(AddressSpace(config))
    with prof.stage("run.record"):
        return record_trace(wl)


def save_trace(trace, cache: Optional[ResultCache],
               profiler: Optional[Profiler] = None) -> bool:
    """Write ``trace``'s entry if this process derived its geometry.

    A freshly recorded trace, or a loaded one without packed stats,
    gains them once runs have computed every phase
    (:meth:`~repro.sim.replay.FunctionalTrace.pack_stats`, which first
    completes each phase's stream-pair geometry for every mode); only
    then is the entry written (stage ``run.store``, completion
    included), so a warm trace writes nothing and a run on the entry
    computes no pair geometry.  Failures degrade: an unpicklable trace
    and one over ``$REPRO_CACHE_MAX_MB`` warn once per call; a write the
    filesystem refused (ENOSPC, EACCES, chaos injection) is already
    counted by the store (``cache.write_errors``) and stays silent — an
    unattended sweep on a full disk must not drown in warnings while it
    keeps computing.
    """
    if cache is None or trace.stats is not None:
        return False
    prof = profiler if profiler is not None else Profiler()
    label = f"replay cache: {trace.workload} (scale={trace.scale:g})"
    before = cache.oversize_skips
    with prof.stage("run.store"):
        if not trace.pack_stats():
            return False
        try:
            stored = cache.store(
                trace_key(trace.workload, trace.scale, trace.seed,
                          trace.layout), trace, kind=KIND_REPLAY)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            warnings.warn(f"{label} is unpicklable, not cached: {exc}",
                          stacklevel=2)
            return False
    if not stored and cache.oversize_skips > before:
        warnings.warn(f"{label} exceeds $REPRO_CACHE_MAX_MB, not cached",
                      stacklevel=2)
    return stored
