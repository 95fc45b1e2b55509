"""Per-stream trace statistics shared by the traffic and timing passes.

Everything here is computed *exactly* from the global traces: bank of every
element (via the address space's NUCA mapping), owning core of every element
(via the OpenMP-static partition), hop distances, line-fetch counts
(consecutive-line dedup — streams access memory in order), and migrations.
:class:`PairGeometry` holds what the traffic and placement stages reduce
from *pairs* of streams (forwards, hops, overlap), per phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.isa.pattern import ComputeKind
from repro.mem.address import AddressSpace, LINE_SHIFT
from repro.mem.locks import LockAnalysis
from repro.noc.topology import Mesh
from repro.workloads.base import Phase, StreamTraceData

if TYPE_CHECKING:
    from repro.compiler.program import StreamProgram
    from repro.isa.stream import Stream


@lru_cache(maxsize=None)
def _hops_matrix(width: int, height: int) -> np.ndarray:
    """Build (and cache) the hop matrix for one mesh geometry.

    The matrix is O(tiles^2) — 1M entries at 32x32 — and every
    PhaseEngine, ``geometry_for`` call, and ideal-traffic pass needs the
    same one, so it is memoized per (width, height) and returned
    read-only (all consumers only index it)."""
    n = width * height
    xs = np.arange(n) % width
    ys = np.arange(n) // width
    hmat = (np.abs(xs[:, None] - xs[None, :])
            + np.abs(ys[:, None] - ys[None, :])).astype(np.int64)
    hmat.setflags(write=False)
    return hmat


def hops_matrix(mesh: Mesh) -> np.ndarray:
    """[src, dst] -> hop count for every tile pair (memoized per dims)."""
    return _hops_matrix(mesh.width, mesh.height)


def banks_of_lines(lines: np.ndarray, n_tiles: int) -> np.ndarray:
    """Owning L3 bank per physical line (static 64 B interleave).

    Bit-identical to ``lines % n_tiles`` — lines are non-negative, so
    power-of-two tile counts (every paper mesh) take the mask fast path.
    """
    if n_tiles and not n_tiles & (n_tiles - 1):
        return lines & (n_tiles - 1)
    return lines % n_tiles


@lru_cache(maxsize=32)
def _core_partition(n_elements: int, n_cores: int) -> np.ndarray:
    owners = (np.arange(n_elements, dtype=np.int64) * n_cores) // n_elements
    owners.setflags(write=False)  # shared across callers, like _hops_matrix
    return owners


def core_of_elements(n_elements: int, n_cores: int) -> np.ndarray:
    """Owning core per element under the OpenMP-static contiguous split.

    Memoized per ``(n_elements, n_cores)`` and returned read-only: equal
    stream lengths recur across phases, modes, and warm runs, and every
    consumer only indexes the partition.
    """
    if n_elements == 0:
        return np.zeros(0, dtype=np.int64)
    return _core_partition(n_elements, n_cores)


@dataclass
class StreamStats:
    """Exact geometry of one stream's global trace."""

    name: str
    elements: int
    element_bytes: int
    lines: np.ndarray            # physical line of each element
    banks: np.ndarray            # owning L3 bank of each element
    cores: np.ndarray            # owning core of each element
    line_fetches: int            # consecutive-dedup line count
    migrations: int              # bank transitions along the trace
    migration_hops: float        # total hops of those transitions
    mean_hops_core_bank: float   # E[hops(core(e), bank(e))]
    pages_touched: int
    distinct_lines: int          # |unique(vaddr >> 6)| — §IV-B footprint
    is_write: bool
    affine_fraction: float
    alloc_region: str = ""       # underlying allocation (dedups pseudo-regions)
    modifies: Optional[np.ndarray] = None
    chain_lengths: Optional[np.ndarray] = None
    # Lazily-populated lock-contention memo (see repro.mem.locks).  The
    # engine fills it on first analysis; the stored trace persists it.
    lock_analysis: Optional[LockAnalysis] = None

    @property
    def elements_per_core(self) -> float:
        n_cores = int(self.cores.max()) + 1 if len(self.cores) else 1
        return self.elements / max(n_cores, 1)


def compute_stream_stats(trace: StreamTraceData, space: AddressSpace,
                         mesh: Mesh, hmat: np.ndarray,
                         page_bytes: int,
                         lines: Optional[np.ndarray] = None) -> StreamStats:
    """Analyze one stream's trace against the machine geometry.

    ``lines`` optionally supplies the stream's already-translated
    physical lines (``translate(vaddrs) >> LINE_SHIFT``) so batched
    callers — :func:`compute_phase_stats`, the stored-stats unpack —
    skip the per-stream translation; translation is elementwise pure,
    so the result is identical either way.
    """
    n = trace.steps
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return StreamStats(trace.stream_name, 0, trace.element_bytes,
                           empty, empty, empty, 0, 0, 0.0, 0.0, 0, 0,
                           trace.is_write, trace.affine_fraction,
                           "", trace.modifies, trace.chain_lengths)
    if lines is None:
        paddrs = space.translate(trace.vaddrs)
        lines = paddrs >> LINE_SHIFT
    banks = banks_of_lines(lines, mesh.num_tiles)
    cores = core_of_elements(n, mesh.num_tiles)

    transitions = np.concatenate(([True], lines[1:] != lines[:-1]))
    line_fetches = int(transitions.sum())
    bank_moves = np.concatenate(([False], banks[1:] != banks[:-1]))
    migrations = int(bank_moves.sum())
    if migrations:
        move_idx = np.nonzero(bank_moves)[0]
        migration_hops = float(
            hmat[banks[move_idx - 1], banks[move_idx]].sum())
    else:
        migration_hops = 0.0
    mean_hops = float(hmat[cores, banks].mean())
    pages = int(np.unique(trace.vaddrs // page_bytes).size)
    # Same expression the §IV-B placement profile uses, computed once
    # here so plan_streams (per mode, per run) reads it off the stats.
    distinct = int(np.unique(trace.vaddrs >> 6).size)
    region = space.region_of_vaddr(int(trace.vaddrs[0]))
    return StreamStats(
        name=trace.stream_name,
        elements=n,
        element_bytes=trace.element_bytes,
        lines=lines,
        banks=banks,
        cores=cores,
        line_fetches=line_fetches,
        migrations=migrations,
        migration_hops=migration_hops,
        mean_hops_core_bank=mean_hops,
        pages_touched=pages,
        distinct_lines=distinct,
        is_write=trace.is_write,
        affine_fraction=trace.affine_fraction,
        alloc_region=region.name if region is not None else "",
        modifies=trace.modifies,
        chain_lengths=trace.chain_lengths,
    )


def compute_phase_stats(traces: Dict[str, StreamTraceData],
                        space: AddressSpace, mesh: Mesh,
                        hmat: np.ndarray,
                        page_bytes: int) -> Dict[str, StreamStats]:
    """Per-stream stats for a whole phase with one batched translation.

    Concatenates every stream's virtual addresses, translates them in a
    single :meth:`AddressSpace.translate` call (one page-table walk for
    the phase instead of one per stream), and slices the physical lines
    back out per stream.  Translation is elementwise pure, so this is
    bit-identical to calling :func:`compute_stream_stats` per stream.
    """
    items = list(traces.items())
    parts = [t.vaddrs for _, t in items if t.steps]
    all_lines = (space.translate(np.concatenate(parts)) >> LINE_SHIFT
                 if parts else None)
    stats: Dict[str, StreamStats] = {}
    off = 0
    for name, trace in items:
        n = trace.steps
        lines = all_lines[off:off + n] if n else None
        off += n
        stats[name] = compute_stream_stats(trace, space, mesh, hmat,
                                           page_bytes, lines=lines)
    return stats


def forward_hops(src: StreamStats, dst: StreamStats,
                 hmat: np.ndarray) -> float:
    """Mean hops from src's bank to dst's bank at the same iteration —
    exact for equal-length traces (operand forwarding between SE_L3s)."""
    n = min(src.elements, dst.elements)
    if n == 0:
        return 0.0
    return float(hmat[src.banks[:n], dst.banks[:n]].mean())


def shares_lines_with_other_load(program: StreamProgram, stream: Stream,
                                 phase: Phase,
                                 prefix_lines: Optional[Dict[str, set]] = None
                                 ) -> bool:
    """True when another load stream touches mostly the same cache lines
    as ``stream`` (sampled on a prefix of the traces).  ``prefix_lines``
    keeps each stream's sampled line set by name across calls on one
    phase, so testing all its loads builds each set once."""
    if prefix_lines is None:
        prefix_lines = {}

    def sampled(name: str) -> set:
        lines = prefix_lines.get(name)
        if lines is None:
            trace = phase.traces.get(name)
            lines = prefix_lines[name] = (
                set((trace.vaddrs[:4096] >> 6).tolist())
                if trace is not None else set())
        return lines

    my_lines = sampled(stream.name)
    if not my_lines:
        return False
    for other in program.graph:
        if other.sid == stream.sid \
                or other.compute is not ComputeKind.LOAD:
            continue
        lines = sampled(other.name)
        if lines and len(my_lines & lines) \
                > 0.5 * min(len(my_lines), len(lines)):
            return True
    return False


class PairGeometry:
    """One phase's stream-pair geometry, each entry computed when first
    asked for.

    Which lines an SE_L3 forwards and how far is fixed by the banks each
    stream's data lives in — the trace and its address layout — not by
    the execution mode.  Every run of one
    :class:`~repro.sim.replay.FunctionalTrace` shares one object per
    phase, and a stored trace carries its ``entries`` (completed by
    :meth:`complete` before the entry is written), so a run on a
    just-loaded trace reads dict entries instead of reducing element
    arrays.  ``entries`` maps a key to a value:

    * ``("hops", src, dst)`` — mean bank hops from stream ``src`` to
      ``dst`` at equal iterations (:func:`forward_hops`);
    * ``("forwards", sid)`` — consumer ``sid``'s forward groups
      (:meth:`forward_groups`);
    * ``("overlap", sid)`` — NS_no-comp's load-overlap test
      (:func:`shares_lines_with_other_load`).

    Names are the phase's stream names, as keyed in ``stats``.
    """

    _KINDS = {"hops": float, "forwards": tuple, "overlap": bool}

    def __init__(self, program: StreamProgram, phase: Phase,
                 stats: Dict[str, StreamStats], mesh: Mesh,
                 entries: Optional[Dict[tuple, object]] = None) -> None:
        """``entries`` seeds the object with stored entries; raises
        :class:`ValueError` when one does not describe this phase."""
        self.program = program
        self.phase = phase
        self.stats = stats
        self.mesh = mesh
        self.hmat = hops_matrix(mesh)
        self.entries: Dict[tuple, object] = {}
        # Each stream's line set the overlap test samples, built once.
        self._prefix_lines: Dict[str, set] = {}
        for key, value in (entries or {}).items():
            self._check(key, value)
            self.entries[key] = value

    def _check(self, key: tuple, value: object) -> None:
        kind = key[0] if isinstance(key, tuple) and key else None
        if not isinstance(value, self._KINDS.get(kind, ())):
            raise ValueError(f"pair geometry entry {key!r} is malformed")
        if kind == "hops":
            ok = len(key) == 3 and key[1] in self.stats \
                and key[2] in self.stats
        else:
            ok = len(key) == 2 and key[1] in self.program.recognized
        if not ok:
            raise ValueError(f"pair geometry entry {key!r} names a stream "
                             f"the phase does not have")

    def _get(self, key: tuple, compute, *args):
        try:
            return self.entries[key]
        except KeyError:
            value = self.entries[key] = compute(*args)
            return value

    # ------------------------------------------------------------------
    def stream_stats(self, stream: Stream) -> Optional[StreamStats]:
        """The stats a stream's traffic is measured on: its own, or its
        source's for a memory-free stream (a reduction)."""
        if self.program.recognized[stream.sid].memory_free:
            source = self.program.graph.stream(stream.base_stream)
            return self.stats.get(source.name)
        return self.stats.get(stream.name)

    def hops(self, src: StreamStats, dst: StreamStats) -> float:
        """:func:`forward_hops` from ``src`` to ``dst``."""
        return self._get(("hops", src.name, dst.name), forward_hops,
                         src, dst, self.hmat)

    def forward_groups(self, consumer: Stream
                       ) -> Tuple[Tuple[int, float], ...]:
        """One (unique source lines, mean hops) pair per forward that
        ``consumer``'s distant producers send it."""
        return self._get(("forwards", consumer.sid), self._forwards,
                         consumer)

    def shares_lines(self, stream: Stream) -> bool:
        """:func:`shares_lines_with_other_load` for ``stream``."""
        return self._get(("overlap", stream.sid),
                         shares_lines_with_other_load, self.program,
                         stream, self.phase, self._prefix_lines)

    # ------------------------------------------------------------------
    def _forwards(self, consumer: Stream) -> Tuple[Tuple[int, float], ...]:
        cst = self.stream_stats(consumer)
        if cst is None or cst.elements == 0:
            return ()
        graph = self.program.graph
        n_tiles = self.mesh.num_tiles
        # Operands co-located with the consumer (aligned regions at the
        # same element offset) are free. Distant producers forward at
        # line granularity; producers shipping the same lines in the
        # same direction (a stencil row's three column taps) share one
        # forward, while opposite-direction users of a line (the same
        # row serving as N and as S) are separate transfers.
        groups: Dict[tuple, list] = {}
        for dep in consumer.value_deps:
            if dep == consumer.sid or dep == consumer.base_stream:
                continue  # base-chain values travel with the requests
            if self.program.recognized[dep].memory_free:
                continue
            producer = graph.stream(dep)
            pst = self.stream_stats(producer)
            if pst is None or not pst.elements:
                continue
            hops = self.hops(pst, cst)
            if hops <= 0.5:
                continue
            n = min(pst.elements, cst.elements)
            offset = int(np.round(float(np.mean(
                (cst.banks[:n] - pst.banks[:n]) % n_tiles))))
            key = (pst.alloc_region or producer.region, offset)
            groups.setdefault(key, []).append((pst, hops))
        return tuple((int(np.unique(np.concatenate(
                          [m[0].lines for m in members])).size),
                      float(np.mean([m[1] for m in members])))
                     for members in groups.values())

    def complete(self) -> None:
        """Compute every entry a run of any mode (or Fig 1b's near-LLC
        system) can ask this phase for."""
        graph = self.program.graph
        recognized = self.program.recognized
        for stream in graph:
            dst = self.stream_stats(stream)
            if dst is None:
                continue
            deps = (*stream.value_deps, *stream.config_input_deps)
            if stream.base_stream is not None:
                deps += (stream.base_stream,)
            for dep in deps:
                sources = [graph.stream(dep)]
                if recognized[dep].memory_free:
                    # A nested reduction forwards from its anchor bank.
                    sources.append(graph.stream(sources[0].base_stream))
                for source in sources:
                    src = self.stream_stats(source)
                    if src is not None:
                        self.hops(src, dst)
            if recognized[stream.sid].memory_free:
                continue
            self.forward_groups(stream)
            if stream.compute is ComputeKind.LOAD:
                self.shares_lines(stream)
