"""Exact set-associative cache simulation, vectorized.

Driven by real traces of line addresses. Supports LRU and the paper's
bimodal RRIP (p = 0.03) replacement.

An LRU set is a dict of resident tag -> dirty bit in recency order,
least recently used first: a hit re-inserts its tag and a miss past the
set's ways evicts the first key. A BRRIP set stores way-indexed state
(tag / dirty / RRPV). The model processes whole traces with two
interchangeable engines:

* a **scalar** engine — an optimized per-access loop over Python dicts
  and lists, best for the scaled-down caches the sampled simulation
  uses (2-8 sets);
* a **wavefront** engine — trace positions are batched by their per-set
  occurrence index, so every batch touches each set at most once and is
  processed with pure numpy array operations. Chosen automatically for
  many-set caches where batches are wide.

Both engines first collapse runs of repeated line addresses (element-
granularity traces of sequential streams revisit the same 64 B line many
times in a row; every access after the first in a run is a guaranteed hit),
and both implement exactly the semantics of
the per-access ``ScalarCacheModel`` in ``tests/oracles/cache_ref.py``,
the oracle the equivalence tests check against.

BRRIP insertion randomness is position-addressed: a bulk ``access`` call
consumes one uniform draw per trace position from a buffered RNG stream and
a miss at position ``p`` uses draw ``p``, which makes the outcome
independent of engine processing order. ``access_one`` consumes one draw
per miss, and so does a bulk call with ``draw_per_miss``. LRU consumes no
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.config import CacheConfig


class ReplacementPolicy(Enum):
    """Replacement policies: plain LRU or Table V's bimodal RRIP."""

    LRU = "lru"
    BRRIP = "brrip"   # bimodal RRIP, p = 0.03 (Table V)


@dataclass
class CacheAccessResult:
    """Aggregate outcome of a trace run.

    ``hit_mask`` (per-call results only) marks which accesses hit, letting the
    hierarchy model feed exactly the missing subset to the next level.
    ``victims`` (with ``record_victims``) is a ``(positions, lines)`` pair of
    dirty-victim evictions: the trace position whose miss evicted each dirty
    line, ascending — what the hierarchy walk chains into the next level.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    hit_mask: Optional[np.ndarray] = None
    victims: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class DrawStream:
    """Buffered uniform [0, 1) stream with deterministic consumption.

    The sequence of values is exactly the generator's ``random()`` stream;
    buffering only amortizes the per-draw cost. Both :class:`CacheModel`
    and the scalar reference draw from this, so identical consumption
    patterns yield identical insertion decisions.
    """

    _BLOCK = 1 << 14

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None   # on first draw
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def _fresh(self, n: int) -> np.ndarray:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng.random(n)

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` draws, left unconsumed (see :meth:`skip`)."""
        avail = len(self._buf) - self._pos
        if n > avail:
            fresh = self._fresh(max(n - avail, self._BLOCK))
            self._buf = np.concatenate((self._buf[self._pos:], fresh))
            self._pos = 0
        return self._buf[self._pos:self._pos + n]

    def skip(self, n: int) -> None:
        """Consume the first ``n`` draws the last :meth:`peek` returned."""
        self._pos += n

    def take(self, n: int) -> np.ndarray:
        out = self.peek(n)
        self._pos += n
        return out

    def take_one(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._fresh(self._BLOCK)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)


class CacheModel:
    """One cache array. ``access`` processes a whole numpy trace."""

    _RRPV_MAX = 3
    _BRRIP_P = 0.03
    # Wavefront pays ~tens of numpy calls per batch; only worth it when
    # batches are wide (many sets touched per round) and the trace is long.
    _WAVEFRONT_MIN_TRACE = 1024
    _WAVEFRONT_MIN_WIDTH = 8.0

    def __init__(self, config: CacheConfig,
                 policy: ReplacementPolicy = ReplacementPolicy.BRRIP,
                 seed: int = 11) -> None:
        self.config = config
        self.policy = policy
        self.sets = config.sets
        self.assoc = config.assoc
        self._draws = DrawStream(seed)
        self.result = CacheAccessResult()
        self.force_engine: Optional[str] = None   # tests: "scalar"/"wavefront"
        self._init_state()

    def _init_state(self) -> None:
        sets, assoc = self.sets, self.assoc
        # Per set, the resident tags: tag -> dirty in recency order (LRU)
        # or tag -> way into the way-indexed lists below (BRRIP).
        self._resident: List[dict] = [dict() for _ in range(sets)]
        if self.policy is ReplacementPolicy.BRRIP:
            self._way_tags = [[-1] * assoc for _ in range(sets)]
            self._way_dirty = [[False] * assoc for _ in range(sets)]
            self._way_rrpv = [[0] * assoc for _ in range(sets)]

    # ------------------------------------------------------------------
    # Bulk trace processing
    # ------------------------------------------------------------------
    def access(self, line_addrs: np.ndarray,
               is_write: Optional[np.ndarray] = None,
               record_victims: bool = False,
               draw_per_miss: bool = False) -> CacheAccessResult:
        """Run a trace of line addresses; returns stats for this call only.

        ``is_write`` marks stores (sets the dirty bit, counted on eviction).
        ``record_victims`` fills ``result.victims`` with (position, line)
        pairs for dirty evictions so the caller can chain writebacks into
        the next level.  ``draw_per_miss`` switches BRRIP insertion draws
        from position-addressed to one-draw-per-miss — the consumption
        pattern of :meth:`access_one` — so a bulk call is bit-identical to
        the equivalent ``access_one`` sequence (forces the scalar engine,
        since per-miss draw order is inherently serial).
        """
        line_addrs = np.asarray(line_addrs, dtype=np.int64)
        n = len(line_addrs)
        if is_write is None:
            is_write = np.zeros(n, dtype=bool)
        else:
            is_write = np.asarray(is_write, dtype=bool)
            if len(is_write) != n:
                raise ValueError("is_write length mismatch")
        call = CacheAccessResult()
        call.hit_mask = np.zeros(n, dtype=bool)
        if record_victims:
            call.victims = (np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
        if n == 0:
            self._accumulate(call)
            return call
        if line_addrs[0] < 0 or line_addrs.min() < 0:
            raise ValueError("negative line addresses are not supported")

        brrip = self.policy is ReplacementPolicy.BRRIP
        per_miss = brrip and draw_per_miss
        draws = self._draws.take(n) if brrip and not per_miss else None

        # Collapse runs of the same line: only a run's first access can
        # miss; the rest are guaranteed hits that fold into one update.
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(line_addrs[1:], line_addrs[:-1], out=first[1:])
        fidx = np.flatnonzero(first)
        addrs = line_addrs[fidx]
        last_idx = np.empty(len(fidx), dtype=np.int64)
        last_idx[:-1] = fidx[1:] - 1
        last_idx[-1] = n - 1
        multi = last_idx > fidx
        if is_write.any():
            w_any = np.logical_or.reduceat(is_write, fidx)
        else:
            w_any = np.zeros(len(fidx), dtype=bool)

        set_ids = addrs % self.sets
        tags = addrs // self.sets
        draws_first = draws[fidx] if draws is not None else None
        victim_fidx = fidx if record_victims else None

        counts = np.bincount(set_ids, minlength=self.sets)
        engine = self.force_engine or self._pick_engine(len(set_ids), counts)
        if per_miss:
            engine = "scalar"   # per-miss draw order is serial by nature
        if engine == "wavefront":
            # A run's recency is that of its last access.
            hits = self._access_wavefront(set_ids, tags, w_any, multi,
                                          1 + last_idx, draws_first, counts,
                                          call, victim_fidx)
        elif brrip:
            hits = self._access_brrip(set_ids, tags, w_any, multi,
                                      draws_first, call, victim_fidx)
        else:
            hits = self._access_lru(set_ids, tags, w_any, call, victim_fidx)

        call.hit_mask[:] = True
        call.hit_mask[fidx] = hits
        call.accesses = n
        call.hits = int(call.hit_mask.sum())
        call.misses = n - call.hits
        self._accumulate(call)
        return call

    def _pick_engine(self, m: int, counts: np.ndarray) -> str:
        if m < self._WAVEFRONT_MIN_TRACE:
            return "scalar"
        rounds = int(counts.max())
        return ("wavefront"
                if m >= self._WAVEFRONT_MIN_WIDTH * rounds else "scalar")

    # ------------------------------------------------------------------
    def _access_lru(self, set_ids: np.ndarray, tags: np.ndarray,
                    w_any: np.ndarray, call: CacheAccessResult,
                    victim_fidx: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-access LRU loop over the collapsed trace: one dict pop and
        one insert per access, plus the first key's pop on an eviction.
        Returns the collapsed hit mask."""
        all_resident = self._resident
        assoc = self.assoc
        sets = self.sets
        record = victim_fidx is not None
        fidx_list = victim_fidx.tolist() if record else None
        victim_pos: List[int] = []
        victim_lines: List[int] = []
        missed: List[int] = []
        miss = missed.append
        evictions = 0
        dirty_evictions = 0
        for i, (s, t, w) in enumerate(zip(set_ids.tolist(), tags.tolist(),
                                          w_any.tolist())):
            resident = all_resident[s]
            dirty = resident.pop(t, None)
            if dirty is not None:
                resident[t] = dirty or w
                continue
            miss(i)
            if len(resident) >= assoc:
                victim = next(iter(resident))
                evictions += 1
                if resident.pop(victim):
                    dirty_evictions += 1
                    if record:
                        victim_pos.append(fidx_list[i])
                        victim_lines.append(victim * sets + s)
            resident[t] = w
        call.evictions += evictions
        call.dirty_evictions += dirty_evictions
        if record:
            call.victims = (np.array(victim_pos, dtype=np.int64),
                            np.array(victim_lines, dtype=np.int64))
        hits = np.ones(len(set_ids), dtype=bool)
        hits[missed] = False
        return hits

    def _access_brrip(self, set_ids: np.ndarray, tags: np.ndarray,
                      w_any: np.ndarray, multi: np.ndarray,
                      draws: Optional[np.ndarray], call: CacheAccessResult,
                      victim_fidx: Optional[np.ndarray] = None
                      ) -> np.ndarray:
        """Per-access BRRIP loop over the collapsed trace; returns its hit
        mask.

        ``draws`` holds the position-addressed draws; without them the
        call peeks one block of the stream and consumes a draw per miss,
        as :meth:`access_one` does. Victim search is one ``max`` and one
        ``index``; aging a set adds to a per-set offset (the stored RRPVs
        read ``stored + age[set]``), folded back in after the loop.
        """
        rrpv_max = self._RRPV_MAX
        # Per set: (tag -> way, way tags, way dirty bits, way RRPVs).
        state = list(zip(self._resident, self._way_tags, self._way_dirty,
                         self._way_rrpv))
        assoc = self.assoc
        sets = self.sets
        m = len(set_ids)
        per_miss = draws is None
        near = ((self._draws.peek(m) if per_miss else draws)
                < self._BRRIP_P).tolist()
        age = [0] * sets
        record = victim_fidx is not None
        fidx_list = victim_fidx.tolist() if record else None
        victim_pos: List[int] = []
        victim_lines: List[int] = []
        missed: List[int] = []
        miss = missed.append
        draws_used = 0
        evictions = 0
        dirty_evictions = 0
        for i, (s, t, w, mu) in enumerate(zip(
                set_ids.tolist(), tags.tolist(), w_any.tolist(),
                multi.tolist())):
            ways, set_tags, set_dirty, set_rrpv = state[s]
            way = ways.get(t)
            if way is not None:
                set_rrpv[way] = -age[s]
                if w:
                    set_dirty[way] = True
                continue
            miss(i)
            if len(ways) >= assoc:
                # The victim is the first way at the set's top RRPV; aging
                # lifts that top to RRPV max.
                top = max(set_rrpv)
                way = set_rrpv.index(top)
                age[s] = rrpv_max - top
                del ways[set_tags[way]]
                evictions += 1
                if set_dirty[way]:
                    dirty_evictions += 1
                    if record:
                        victim_pos.append(fidx_list[i])
                        victim_lines.append(set_tags[way] * sets + s)
            else:
                way = set_tags.index(-1)
            set_tags[way] = t
            ways[t] = way
            set_dirty[way] = w
            # access_one draws on every miss insert; a run-tail hit then
            # resets the RRPV to 0, but the draw is still consumed.
            if per_miss:
                is_near = near[draws_used]
                draws_used += 1
            else:
                is_near = near[i]
            if mu:
                set_rrpv[way] = -age[s]
            else:
                set_rrpv[way] = (rrpv_max - 2 if is_near
                                 else rrpv_max - 1) - age[s]
        if per_miss:
            self._draws.skip(draws_used)
        for s, a in enumerate(age):
            if a:
                self._way_rrpv[s][:] = [r + a for r in self._way_rrpv[s]]
        call.evictions += evictions
        call.dirty_evictions += dirty_evictions
        if record:
            call.victims = (np.array(victim_pos, dtype=np.int64),
                            np.array(victim_lines, dtype=np.int64))
        hits = np.ones(m, dtype=bool)
        hits[missed] = False
        return hits

    # ------------------------------------------------------------------
    def _access_wavefront(self, set_ids: np.ndarray, tags: np.ndarray,
                          w_any: np.ndarray, multi: np.ndarray,
                          stamps: np.ndarray, draws: Optional[np.ndarray],
                          counts: np.ndarray,
                          call: CacheAccessResult,
                          victim_fidx: Optional[np.ndarray] = None
                          ) -> np.ndarray:
        """Batched engine: each batch holds every set's next pending access.

        Batch ``k`` contains the positions whose per-set occurrence index is
        ``k``; all same-set predecessors live in earlier batches and every
        batch touches each set at most once, so a batch is processed with
        pure array operations and no intra-batch dependencies.

        LRU recency becomes way-indexed stamps for the call: resident
        lines take negative stamps in recency order, and an access at
        collapsed position ``i`` stamps ``stamps[i]`` (positive).
        """
        lru = self.policy is ReplacementPolicy.LRU
        rrpv_max = self._RRPV_MAX
        m = len(set_ids)

        # RRPV is never read under LRU, and stamps are never read under
        # BRRIP — each policy materializes only the state it observes.
        if lru:
            tag_m, dirty_m, stamp_m = self._lru_ways()
            rrpv_m = None
        else:
            tag_m = np.asarray(self._way_tags, dtype=np.int64)
            dirty_m = np.asarray(self._way_dirty, dtype=bool)
            rrpv_m = np.asarray(self._way_rrpv, dtype=np.int64)
            stamp_m = None

        # Stable grouping by set; batch k gathers each active set's k-th
        # access directly from the grouped order, so only one sort is
        # needed. Sets sorted by descending access count keep the active
        # ones a shrinking prefix.
        order = np.argsort(set_ids, kind="stable")
        starts = np.cumsum(counts) - counts
        set_rank = np.argsort(-counts, kind="stable")
        ranked_counts = counts[set_rank].tolist()
        ranked_starts = starts[set_rank]
        rounds = ranked_counts[0] if ranked_counts else 0

        if lru:
            ins_rrpv = None
        else:
            ins_rrpv = np.where(draws < self._BRRIP_P,
                                rrpv_max - 2, rrpv_max - 1)
            ins_rrpv[multi] = 0   # run hits reset a fresh insert to 0

        has_writes = bool(w_any.any())
        hits = np.empty(m, dtype=bool)
        width_idx = np.arange(len(ranked_counts) or 1)
        evictions = 0
        dirty_evictions = 0
        victim_pos_chunks: List[np.ndarray] = []
        victim_line_chunks: List[np.ndarray] = []
        active = len(ranked_counts)
        for k in range(rounds):
            while active and ranked_counts[active - 1] <= k:
                active -= 1
            b = order[ranked_starts[:active] + k]
            s = set_ids[b]
            rows = tag_m[s]
            match = rows == tags[b][:, None]
            way = match.argmax(axis=1)
            hit = match[width_idx[:len(b)], way]
            hits[b] = hit
            bh = b[hit]
            if len(bh):
                hs = s[hit]
                hw = way[hit]
                if lru:
                    stamp_m[hs, hw] = stamps[bh]
                else:
                    rrpv_m[hs, hw] = 0
                if has_writes:
                    dirty_m[hs, hw] |= w_any[bh]
            if len(bh) == len(b):
                continue
            miss = ~hit
            bm = b[miss]
            ms = s[miss]
            free_mask = rows[miss] == -1
            full = ~free_mask.any(axis=1)
            way_ins = free_mask.argmax(axis=1)
            if full.any():
                fs = ms[full]
                if lru:
                    victim = stamp_m[fs].argmin(axis=1)
                else:
                    rr = rrpv_m[fs]
                    delta = rrpv_max - rr.max(axis=1)
                    rr = rr + delta[:, None]
                    rrpv_m[fs] = rr
                    victim = (rr == rrpv_max).argmax(axis=1)
                evictions += int(full.sum())
                victim_dirty = dirty_m[fs, victim]
                dirty_evictions += int(victim_dirty.sum())
                if victim_fidx is not None and victim_dirty.any():
                    victim_pos_chunks.append(
                        victim_fidx[bm[full][victim_dirty]])
                    victim_line_chunks.append(
                        tag_m[fs, victim][victim_dirty] * self.sets
                        + fs[victim_dirty])
                way_ins[full] = victim
            tag_m[ms, way_ins] = tags[bm]
            dirty_m[ms, way_ins] = w_any[bm]
            if lru:
                stamp_m[ms, way_ins] = stamps[bm]
            else:
                rrpv_m[ms, way_ins] = ins_rrpv[bm]

        if lru:
            self._set_lru_ways(tag_m, dirty_m, stamp_m)
        else:
            self._set_brrip_ways(tag_m, dirty_m, rrpv_m)
        call.evictions += evictions
        call.dirty_evictions += dirty_evictions
        if victim_fidx is not None and victim_pos_chunks:
            pos = np.concatenate(victim_pos_chunks)
            lines = np.concatenate(victim_line_chunks)
            order_v = np.argsort(pos, kind="stable")
            call.victims = (pos[order_v], lines[order_v])
        return hits

    def _lru_ways(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """LRU sets as way-indexed (tags, dirty, stamps) arrays: resident
        lines fill the low ways with stamps -len..-1, oldest first."""
        assoc = self.assoc
        pad = [[-1] * (assoc - k) for k in range(assoc + 1)]
        tag_m = np.array([list(r) + pad[len(r)] for r in self._resident],
                         dtype=np.int64)
        dirty_m = np.array([list(r.values()) + [False] * (assoc - len(r))
                            for r in self._resident], dtype=bool)
        stamp_m = np.array([list(range(-len(r), 0)) + pad[len(r)]
                            for r in self._resident], dtype=np.int64)
        return tag_m, dirty_m, stamp_m

    def _set_lru_ways(self, tag_m: np.ndarray, dirty_m: np.ndarray,
                      stamp_m: np.ndarray) -> None:
        order = np.argsort(stamp_m, axis=1, kind="stable")
        tags = np.take_along_axis(tag_m, order, axis=1).tolist()
        dirty = np.take_along_axis(dirty_m, order, axis=1).tolist()
        self._resident = [{t: d for t, d in zip(row_t, row_d) if t >= 0}
                          for row_t, row_d in zip(tags, dirty)]

    def _set_brrip_ways(self, tag_m: np.ndarray, dirty_m: np.ndarray,
                        rrpv_m: np.ndarray) -> None:
        self._way_tags = tag_m.tolist()
        self._way_dirty = dirty_m.tolist()
        self._way_rrpv = rrpv_m.tolist()
        self._resident = [
            {tag: way for way, tag in enumerate(row) if tag >= 0}
            for row in self._way_tags
        ]

    def _accumulate(self, call: CacheAccessResult) -> None:
        self.result.accesses += call.accesses
        self.result.hits += call.hits
        self.result.misses += call.misses
        self.result.evictions += call.evictions
        self.result.dirty_evictions += call.dirty_evictions

    # ------------------------------------------------------------------
    # Single-access path (interleaved sampling)
    # ------------------------------------------------------------------
    def access_one(self, line_addr: int,
                   write: bool = False) -> Tuple[bool, Optional[int]]:
        """Process a single line access.

        Returns ``(hit, evicted_dirty_line)`` — the evicted dirty victim's
        line address (or None), so the caller can write it back into the
        next level. Used by the interleaved sampling path where accesses
        from several streams must hit the caches in program order.
        """
        set_idx = line_addr % self.sets
        tag = line_addr // self.sets
        ways = self._resident[set_idx]
        result = self.result
        result.accesses += 1
        if self.policy is ReplacementPolicy.LRU:
            dirty = ways.pop(tag, None)
            if dirty is not None:
                ways[tag] = dirty or write
                result.hits += 1
                return True, None
            result.misses += 1
            evicted_dirty: Optional[int] = None
            if len(ways) >= self.assoc:
                victim = next(iter(ways))
                result.evictions += 1
                if ways.pop(victim):
                    result.dirty_evictions += 1
                    evicted_dirty = victim * self.sets + set_idx
            ways[tag] = write
            return False, evicted_dirty
        way = ways.get(tag)
        set_tags = self._way_tags[set_idx]
        set_dirty = self._way_dirty[set_idx]
        set_rrpv = self._way_rrpv[set_idx]
        if way is not None:
            result.hits += 1
            set_rrpv[way] = 0
            if write:
                set_dirty[way] = True
            return True, None
        result.misses += 1
        evicted_dirty = None
        if len(ways) >= self.assoc:
            top = max(set_rrpv)
            way = set_rrpv.index(top)
            if top < self._RRPV_MAX:
                delta = self._RRPV_MAX - top
                set_rrpv[:] = [r + delta for r in set_rrpv]
            victim_tag = set_tags[way]
            del ways[victim_tag]
            result.evictions += 1
            if set_dirty[way]:
                result.dirty_evictions += 1
                evicted_dirty = victim_tag * self.sets + set_idx
        else:
            way = set_tags.index(-1)
        set_tags[way] = tag
        ways[tag] = way
        set_dirty[way] = write
        near = self._draws.take_one() < self._BRRIP_P
        set_rrpv[way] = self._RRPV_MAX - 2 if near else self._RRPV_MAX - 1
        return False, evicted_dirty

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        set_idx = line_addr % self.sets
        return (line_addr // self.sets) in self._resident[set_idx]

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (coherence invalidation). True if it was."""
        set_idx = line_addr % self.sets
        entry = self._resident[set_idx].pop(line_addr // self.sets, None)
        if entry is None:
            return False
        if self.policy is ReplacementPolicy.BRRIP:
            way = entry
            self._way_tags[set_idx][way] = -1
            self._way_dirty[set_idx][way] = False
        return True

    @property
    def occupied_lines(self) -> int:
        return sum(len(ways) for ways in self._resident)

    def reset(self) -> None:
        self._init_state()
        self.result = CacheAccessResult()
