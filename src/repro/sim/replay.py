"""Content-keyed functional traces: record once, replay everywhere.

Sweeps and comparisons re-run the same functional workload for every
offload mode and timing config, even though addresses and compute
results cannot change across those axes — the functional pass is a pure
function of (workload, scale, seed, address layout).  This module makes
that split explicit: a :class:`FunctionalTrace` captures everything the
simulation phases consume — the compiled :class:`StreamProgram` of every
phase, the packed stream address vectors, the measured atomic outcomes
(``modifies``), pointer-chase traversal boundaries, and the address
space — in a compact structure-of-arrays form, so replay reconstructs
the phases with numpy views and never iterates Python per element.

Replay is **bit-identical** to the live path by construction: the
reconstructed :class:`~repro.workloads.base.Phase` objects carry the
same arrays (values and order) the live build produced, and
:class:`~repro.sim.phase.PhaseEngine` is deterministic in its inputs.
The property suite ``tests/sim/test_replay_equivalence.py`` enforces
this for all workloads and modes with the same discipline as the
scalar-oracle suites (``tests/oracles``).

Persistence rides the same checksummed-envelope, content-addressed store
as simulation results (:mod:`repro.workloads.build_cache` holds the
cache plumbing and the key derivation): one entry per workload and
address layout holds the trace, its derived stream geometry and the
sampled cache walks of the runs made before it was stored.  A corrupt or
stale entry quarantines and degrades to a fresh build and record, never
a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import compile_kernel
from repro.compiler.program import StreamProgram
from repro.config import AddressLayout
from repro.mem.address import AddressSpace
from repro.mem.locks import LockAnalysis
from repro.sim.tracestats import (PairGeometry, StreamStats,
                                  banks_of_lines, compute_phase_stats,
                                  core_of_elements, hops_matrix)
from repro.workloads.base import Phase, StreamTraceData, Workload

#: Bump when the FunctionalTrace layout or reconstruction semantics
#: change in a way that invalidates stored traces.  2: keyed on the
#: address layout, with the packed stream geometry inside.  3: ``vaddrs``
#: and ``lines`` are pickled per stream slice as a first value plus
#: narrow deltas (:func:`pack_slices`).  4: each phase's packed geometry
#: also holds its completed stream-pair entries
#: (:class:`~repro.sim.tracestats.PairGeometry`).  5: the trace keeps the
#: level counts of every sampled cache walk made before it was stored
#: (``FunctionalTrace._levels``).  Those counts depend on the cache
#: model as well: a change to its semantics bumps
#: :data:`~repro.eval.result_cache.CACHE_SCHEMA`, which turns every
#: envelope of an older schema, replay entries included, into a miss.
REPLAY_SCHEMA = 5

_NO_SLICE = (-1, -1)

#: Widths a stored slice's deltas may take, narrowest first.  int64
#: holds every int64 difference modulo 2**64, so the list never runs out.
_DELTA_DTYPES = tuple((np.dtype(t), int(np.iinfo(t).min),
                       int(np.iinfo(t).max))
                      for t in (np.int8, np.int16, np.int32, np.int64))

_NO_DELTAS = np.zeros(0, dtype=np.int8)


def _partition_end(slices: Sequence[Tuple[int, int]]) -> int:
    """The length ``slices`` cover when they tile ``[0, end)`` in order."""
    end = 0
    for s0, s1 in slices:
        if s0 != end or s1 < s0:
            raise ValueError(f"slice ({s0}, {s1}) does not continue the "
                             f"partition at {end}")
        end = s1
    return end


def pack_slices(values: np.ndarray, slices: Sequence[Tuple[int, int]]
                ) -> List[Tuple[int, np.ndarray]]:
    """The stored form of an int64 array that ``slices`` partition.

    Each slice becomes its first value and its consecutive differences,
    held in the narrowest of int8/int16/int32/int64 that fits them all.
    int64 ``np.diff`` and :func:`unpack_slices`'s ``np.cumsum`` both wrap
    modulo 2**64, so the round trip is exact for any int64 input, even
    where a difference overflows.
    """
    if _partition_end(slices) != len(values):
        raise ValueError(f"slices do not partition {len(values)} values")
    parts: List[Tuple[int, np.ndarray]] = []
    for s0, s1 in slices:
        if s1 - s0 < 2:
            parts.append((int(values[s0]) if s1 > s0 else 0, _NO_DELTAS))
            continue
        deltas = np.diff(values[s0:s1])
        lo, hi = int(deltas.min()), int(deltas.max())
        dtype = next(t for t, t_min, t_max in _DELTA_DTYPES
                     if t_min <= lo and hi <= t_max)
        parts.append((int(values[s0]), deltas.astype(dtype, copy=False)))
    return parts


def unpack_slices(parts: Sequence[Tuple[int, np.ndarray]],
                  slices: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Rebuild the contiguous int64 array :func:`pack_slices` stored.

    One ``np.empty`` holds the result: each slice's window takes its
    first value and its widened deltas, then is summed in place, so no
    per-slice temporary is made.  The result is read-only: a loaded
    trace may feed many runs (:func:`~repro.workloads.build_cache.
    load_or_record`), so a write into it must raise, not change the next
    run's input.  Raises :class:`ValueError` when a part does not match
    its slice.
    """
    if len(parts) != len(slices):
        raise ValueError(f"{len(parts)} stored parts for {len(slices)} "
                         f"slices")
    out = np.empty(_partition_end(slices), dtype=np.int64)
    for (s0, s1), (first, deltas) in zip(slices, parts):
        if len(deltas) != max(s1 - s0 - 1, 0):
            raise ValueError(f"slice ({s0}, {s1}) stored with "
                             f"{len(deltas)} deltas")
        if s1 > s0:
            window = out[s0:s1]
            window[0] = first
            window[1:] = deltas
            np.cumsum(window, out=window)
    out.flags.writeable = False
    return out


@dataclass
class PhaseTrace:
    """One phase's replayable payload: compiled program + packed traces.

    All per-element data lives in shared flat arrays; per-stream entries
    are (start, end) windows into them, so reconstruction is a numpy
    slice (a view, no copy) per stream.  ``vaddrs`` is pickled per
    stream as narrow deltas (:func:`pack_slices`) and unpickles to the
    same contiguous int64 array.  Every unpickled array is read-only.
    """

    program: StreamProgram
    names: List[str]                  # traces-dict insertion order
    vaddr_slices: List[Tuple[int, int]]
    vaddrs: np.ndarray                # int64, all streams concatenated
    is_write: List[bool]
    element_bytes: List[int]
    affine_fraction: List[float]
    modify_slices: List[Tuple[int, int]]   # (-1, -1) when absent
    modifies: np.ndarray              # bool, concatenated
    chain_slices: List[Tuple[int, int]]    # (-1, -1) when absent
    chain_lengths: np.ndarray         # int64, concatenated
    invocations: int
    barriers: Optional[int]
    serial_chain_latency_hint: float
    data_scale: float

    def __getstate__(self):
        state = dict(self.__dict__)
        state["vaddrs"] = pack_slices(self.vaddrs, self.vaddr_slices)
        return state

    def __setstate__(self, state):
        state["vaddrs"] = unpack_slices(state["vaddrs"],
                                        state["vaddr_slices"])
        state["modifies"].flags.writeable = False
        state["chain_lengths"].flags.writeable = False
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    @classmethod
    def from_phase(cls, phase: Phase, program: StreamProgram
                   ) -> "PhaseTrace":
        names: List[str] = []
        vaddr_slices: List[Tuple[int, int]] = []
        vaddr_parts: List[np.ndarray] = []
        is_write: List[bool] = []
        element_bytes: List[int] = []
        affine_fraction: List[float] = []
        modify_slices: List[Tuple[int, int]] = []
        modify_parts: List[np.ndarray] = []
        chain_slices: List[Tuple[int, int]] = []
        chain_parts: List[np.ndarray] = []
        v_off = m_off = c_off = 0
        for name, trace in phase.traces.items():
            names.append(name)
            vaddr_parts.append(trace.vaddrs)
            vaddr_slices.append((v_off, v_off + len(trace.vaddrs)))
            v_off += len(trace.vaddrs)
            is_write.append(bool(trace.is_write))
            element_bytes.append(int(trace.element_bytes))
            affine_fraction.append(float(trace.affine_fraction))
            if trace.modifies is not None:
                modify_parts.append(trace.modifies)
                modify_slices.append((m_off, m_off + len(trace.modifies)))
                m_off += len(trace.modifies)
            else:
                modify_slices.append(_NO_SLICE)
            if trace.chain_lengths is not None:
                chains = np.asarray(trace.chain_lengths, dtype=np.int64)
                chain_parts.append(chains)
                chain_slices.append((c_off, c_off + len(chains)))
                c_off += len(chains)
            else:
                chain_slices.append(_NO_SLICE)
        return cls(
            program=program,
            names=names,
            vaddr_slices=vaddr_slices,
            vaddrs=(np.concatenate(vaddr_parts) if vaddr_parts
                    else np.zeros(0, dtype=np.int64)),
            is_write=is_write,
            element_bytes=element_bytes,
            affine_fraction=affine_fraction,
            modify_slices=modify_slices,
            modifies=(np.concatenate(modify_parts) if modify_parts
                      else np.zeros(0, dtype=bool)),
            chain_slices=chain_slices,
            chain_lengths=(np.concatenate(chain_parts) if chain_parts
                           else np.zeros(0, dtype=np.int64)),
            invocations=phase.invocations,
            barriers=phase.barriers,
            serial_chain_latency_hint=phase.serial_chain_latency_hint,
            data_scale=phase.data_scale,
        )

    def to_phase(self) -> Phase:
        """Reconstruct the Phase; stream arrays are views, never copies."""
        traces: Dict[str, StreamTraceData] = {}
        for i, name in enumerate(self.names):
            v0, v1 = self.vaddr_slices[i]
            m0, m1 = self.modify_slices[i]
            c0, c1 = self.chain_slices[i]
            traces[name] = StreamTraceData(
                stream_name=name,
                vaddrs=self.vaddrs[v0:v1],
                is_write=self.is_write[i],
                element_bytes=self.element_bytes[i],
                affine_fraction=self.affine_fraction[i],
                modifies=self.modifies[m0:m1] if m0 >= 0 else None,
                chain_lengths=(self.chain_lengths[c0:c1]
                               if c0 >= 0 else None),
            )
        return Phase(
            kernel=self.program.kernel,
            traces=traces,
            invocations=self.invocations,
            serial_chain_latency_hint=self.serial_chain_latency_hint,
            data_scale=self.data_scale,
            barriers=self.barriers,
        )

    def fits_walk(self, paths: tuple, counts: dict, sampled: bool
                  ) -> bool:
        """True when ``counts`` can be this phase's per-stream (l1, l2,
        l3, dram) counts from a sampled cache walk with stream ``paths``
        (:meth:`~repro.sim.phase.PhaseEngine.cache_paths`, one per graph
        stream).  The walk counts every stream that has a path and a
        non-empty trace, each with four finite, non-negative floats: the
        first sampled core is core 0, whose slice of a non-empty trace is
        never empty.  With no core ``sampled`` it counts none."""
        graph = self.program.graph
        if not isinstance(paths, tuple) or len(paths) != len(graph) \
                or not isinstance(counts, dict):
            return False
        steps = {name: s1 - s0
                 for name, (s0, s1) in zip(self.names, self.vaddr_slices)}
        walked = {stream.name for stream, path in zip(graph, paths)
                  if sampled and path is not None
                  and steps.get(stream.name, 0) > 0}
        return counts.keys() == walked and all(
            isinstance(c, tuple) and len(c) == 4
            and all(isinstance(v, float) and 0.0 <= v < math.inf
                    for v in c)
            for c in counts.values())

    @property
    def nbytes(self) -> int:
        return (self.vaddrs.nbytes + self.modifies.nbytes
                + self.chain_lengths.nbytes)


@dataclass
class PhaseStatsPack:
    """One phase's derived stream geometry in structure-of-arrays form.

    Only what cannot be recomputed for free travels: the translated
    physical ``lines`` (concatenated across streams, per-stream
    ``(start, end)`` windows), the per-stream scalar reductions and the
    phase's completed stream-pair entries (``pairs``: the ``entries`` of
    its :class:`~repro.sim.tracestats.PairGeometry`).  ``banks`` and
    ``cores`` are arithmetic functions of ``lines`` and the mesh
    (``lines % num_tiles``, the OpenMP-static split) and are rebuilt on
    unpack with the exact formulas
    :func:`~repro.sim.tracestats.compute_stream_stats` uses, so the
    reconstruction is bit-identical and holds one int64 array where the
    stats hold three.  ``lines`` is pickled per stream as narrow deltas
    (:func:`pack_slices`), so at rest it takes a fraction of its 8 bytes
    per element.
    """

    names: List[str]                  # traces-dict insertion order
    line_slices: List[Tuple[int, int]]
    lines: np.ndarray                 # int64, all streams concatenated
    line_fetches: List[int]
    migrations: List[int]
    migration_hops: List[float]
    mean_hops_core_bank: List[float]
    pages_touched: List[int]
    distinct_lines: List[int]
    alloc_regions: List[str]
    # Per-stream lock-contention memos (None when never analyzed).  The
    # tag inside each entry names the (kind, window) it is valid for;
    # the engine recomputes on mismatch, so a stale entry degrades to a
    # recompute, never to a wrong answer.
    lock_analyses: List[Optional["LockAnalysis"]]
    pairs: Dict[tuple, object]

    def __getstate__(self):
        state = dict(self.__dict__)
        state["lines"] = pack_slices(self.lines, self.line_slices)
        return state

    def __setstate__(self, state):
        state["lines"] = unpack_slices(state["lines"], state["line_slices"])
        self.__dict__.update(state)

    @classmethod
    def from_geometry(cls, names: List[str], geometry: PairGeometry
                      ) -> "PhaseStatsPack":
        stats = geometry.stats
        line_slices: List[Tuple[int, int]] = []
        line_parts: List[np.ndarray] = []
        off = 0
        for name in names:
            st = stats[name]
            line_slices.append((off, off + st.elements))
            off += st.elements
            if st.elements:
                line_parts.append(np.ascontiguousarray(st.lines,
                                                       dtype=np.int64))
        return cls(
            names=list(names),
            line_slices=line_slices,
            lines=(np.concatenate(line_parts) if line_parts
                   else np.zeros(0, dtype=np.int64)),
            line_fetches=[stats[n].line_fetches for n in names],
            migrations=[stats[n].migrations for n in names],
            migration_hops=[stats[n].migration_hops for n in names],
            mean_hops_core_bank=[stats[n].mean_hops_core_bank
                                 for n in names],
            pages_touched=[stats[n].pages_touched for n in names],
            distinct_lines=[stats[n].distinct_lines for n in names],
            alloc_regions=[stats[n].alloc_region for n in names],
            lock_analyses=[stats[n].lock_analysis for n in names],
            pairs=dict(geometry.entries),
        )

    def to_geometry(self, phase: Phase, program: StreamProgram,
                    mesh) -> PairGeometry:
        """The phase's :class:`PairGeometry`, seeded with the stored
        stats and pair entries; :class:`ValueError` as :meth:`to_stats`,
        or when a pair entry does not describe this phase."""
        return PairGeometry(program, phase, self.to_stats(phase, mesh),
                            mesh, entries=self.pairs)

    def to_stats(self, phase: Phase, mesh) -> Dict[str, StreamStats]:
        """Reconstruct the per-stream StreamStats against ``phase``.

        Raises :class:`ValueError` when the pack does not describe this
        phase (stream names or lengths differ) — the caller treats that
        as a miss and recomputes.
        """
        if list(phase.traces) != self.names:
            raise ValueError("stats pack streams do not match the phase")
        n_tiles = mesh.num_tiles
        stats: Dict[str, StreamStats] = {}
        for i, name in enumerate(self.names):
            trace = phase.traces[name]
            v0, v1 = self.line_slices[i]
            n = v1 - v0
            if n != trace.steps:
                raise ValueError(
                    f"stats pack stream {name!r} has {n} elements, "
                    f"phase trace has {trace.steps}")
            lines = self.lines[v0:v1]
            stats[name] = StreamStats(
                name=trace.stream_name,
                elements=n,
                element_bytes=trace.element_bytes,
                lines=lines,
                banks=banks_of_lines(lines, n_tiles),
                cores=core_of_elements(n, n_tiles),
                line_fetches=self.line_fetches[i],
                migrations=self.migrations[i],
                migration_hops=self.migration_hops[i],
                mean_hops_core_bank=self.mean_hops_core_bank[i],
                pages_touched=self.pages_touched[i],
                distinct_lines=self.distinct_lines[i],
                is_write=trace.is_write,
                affine_fraction=trace.affine_fraction,
                alloc_region=self.alloc_regions[i],
                modifies=trace.modifies,
                chain_lengths=trace.chain_lengths,
                lock_analysis=self.lock_analyses[i],
            )
        return stats

    @property
    def nbytes(self) -> int:
        return self.lines.nbytes


@dataclass
class FunctionalTrace:
    """A workload's full functional execution, replayable without it.

    Carries the address space (physical layout and NUCA mapping derive
    from it), one :class:`PhaseTrace` per phase, and the identity tuple
    the content key was derived from.  The space pins the
    :class:`~repro.config.AddressLayout` the trace was recorded under —
    replaying against a config with another layout would silently
    desynchronize addresses, so :func:`repro.sim.run.run_workload`
    refuses it.  Every other config field (core, caches, SE knobs) is
    free to vary.

    ``stats`` is the derived stream geometry of every phase, packed
    (:class:`PhaseStatsPack`), once a run has computed it: per-stream
    stats and the stream-pair entries of the phase's
    :class:`~repro.sim.tracestats.PairGeometry`.  Geometry is pure in
    (trace, layout), so it travels inside the same store entry and
    serves every config sharing the layout.  So do the level counts of
    the sampled cache walks made before the entry was written
    (``_levels``), which serve every run with the same cache shape and
    stream paths.
    """

    schema: int
    workload: str
    scale: float
    seed: int
    space: AddressSpace
    phases: List[PhaseTrace]
    stats: Optional[List[PhaseStatsPack]] = None
    # Memos shared by every replay of this object: each phase's
    # PairGeometry (its stats and the pair entries asked for so far; all
    # mode-independent), per process, and each run's raw per-stream level
    # counts of the sampled cache walk, one dict per phase, keyed by what
    # the walk reads besides this trace (:func:`repro.sim.run.
    # run_workload`: ``Machine.cache_shape``, whose first item is the
    # sampled-core count, and every phase's stream paths).  The walks
    # travel with the pickled trace.  Not init fields, so a
    # ``dataclasses.replace`` copy, whose phases may differ, starts empty.
    _geometry: Dict[int, PairGeometry] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _levels: Dict[tuple, List[Dict[str, Tuple[float, ...]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        # The geometry memo is per process; its entries travel packed in
        # ``stats``.  A walk's list stays empty while its run is under way
        # (or after the run raised), and only finished walks are stored.
        state = dict(self.__dict__)
        del state["_geometry"]
        state["_levels"] = {key: walk for key, walk in self._levels.items()
                            if walk}
        return state

    def __setstate__(self, state):
        levels = state.pop("_levels", {})
        self.__dict__.update(state)
        self._geometry = {}
        self._levels = {}
        if self._walks_fit(levels):
            self._levels.update(levels)
        else:
            # A missing stream would read as a default rate, so a stored
            # walk that does not fit is refused outright.  Dropping the
            # pack as well makes the next run recompute it, so
            # save_trace rewrites the entry once, without the bad walk.
            self.stats = None

    def _walks_fit(self, levels) -> bool:
        """True when every stored walk in ``levels`` is one dict per
        phase that :meth:`PhaseTrace.fits_walk` accepts under its key's
        stream paths."""
        if not isinstance(levels, dict):
            return False
        for key, walk in levels.items():
            try:
                shape, paths = key
                sampled = shape[0] > 0
            except (TypeError, ValueError, IndexError):
                return False
            if not isinstance(paths, tuple) or not isinstance(walk, list) \
                    or not len(paths) == len(walk) == len(self.phases):
                return False
            if not all(pt.fits_walk(phase_paths, counts, sampled)
                       for pt, phase_paths, counts
                       in zip(self.phases, paths, walk)):
                return False
        return True

    @property
    def layout(self) -> AddressLayout:
        """The address layout this trace was recorded under."""
        return self.space.layout

    def phase_programs(self) -> List[Tuple[Phase, StreamProgram]]:
        """The reconstructed (phase, compiled program) pairs, in order."""
        return [(pt.to_phase(), pt.program) for pt in self.phases]

    def geometry_for(self, index: int, phase: Phase, mesh,
                     hmat: Optional[np.ndarray] = None) -> PairGeometry:
        """Phase ``index``'s :class:`~repro.sim.tracestats.PairGeometry`,
        memoized.

        Geometry depends only on (trace, layout) — both fixed for one
        FunctionalTrace — so every mode and knob replaying this object
        shares one object.  Packed ``stats`` seed it without
        recomputing; a pack that turns out not to match the trace
        (impossible under the content key, but cheap to guard) is
        dropped and the stats computed, so :meth:`pack_stats` packs them
        afresh and the store entry is rewritten once.  ``mesh`` is the
        replaying machine's (same dims as the layout); ``hmat``
        optionally passes its hop matrix — with the per-mesh memo both
        resolve to the same array.
        """
        geometry = self._geometry.get(index)
        if geometry is None:
            program = self.phases[index].program
            if self.stats is not None:
                try:
                    if len(self.stats) != len(self.phases):
                        raise ValueError("stats pack phases do not match")
                    geometry = self.stats[index].to_geometry(phase, program,
                                                             mesh)
                except ValueError:
                    self.stats = None
            if geometry is None:
                if hmat is None:
                    hmat = hops_matrix(mesh)
                stats = compute_phase_stats(phase.traces, self.space, mesh,
                                            hmat, self.layout.page_bytes)
                geometry = PairGeometry(program, phase, stats, mesh)
            self._geometry[index] = geometry
        return geometry

    def level_counts(self, key: tuple
                     ) -> List[Dict[str, Tuple[float, ...]]]:
        """The per-phase level counts of the cache walk a run with walk
        key ``key`` made, in this process or before the trace was stored;
        an empty list, which that run fills in, when no run has made it
        yet."""
        return self._levels.setdefault(key, [])

    def pack_stats(self) -> bool:
        """Pack the memoized geometry of every phase into ``stats``.

        Each phase's :class:`~repro.sim.tracestats.PairGeometry` is first
        completed (:meth:`~repro.sim.tracestats.PairGeometry.complete`),
        so a run on the stored entry reads every stream-pair entry any
        mode asks for.  Returns True only when this adds packed geometry
        the trace did not carry — the signal that its store entry should
        be (re)written.  False while any phase's geometry is still
        uncomputed (one full run computes them all) or when ``stats`` is
        already set.
        """
        if self.stats is not None \
                or len(self._geometry) != len(self.phases):
            return False
        packs = []
        for i, pt in enumerate(self.phases):
            geometry = self._geometry[i]
            geometry.complete()
            packs.append(PhaseStatsPack.from_geometry(pt.names, geometry))
        self.stats = packs
        return True

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint of the packed arrays."""
        return (sum(pt.nbytes for pt in self.phases)
                + sum(p.nbytes for p in self.stats or ()))


def record_trace(wl: Workload) -> FunctionalTrace:
    """Snapshot a built workload's functional execution for replay.

    Compiles every phase's kernel (the compiled programs travel with the
    trace so replay never pays ``run.compile``) and packs the stream
    traces into the flat-array form.  The workload is not mutated.
    """
    if wl.space is None:
        raise ValueError(f"{wl.name}: record_trace needs a built workload")
    phases = [PhaseTrace.from_phase(phase, compile_kernel(phase.kernel))
              for phase in wl.phases()]
    return FunctionalTrace(
        schema=REPLAY_SCHEMA,
        workload=wl.name,
        scale=wl.scale,
        seed=wl.seed,
        space=wl.space,
        phases=phases,
    )
