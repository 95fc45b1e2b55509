"""Exact set-associative cache simulation, vectorized.

Driven by real traces of line addresses. Supports LRU and the paper's
bimodal RRIP (p = 0.03) replacement.

The model stores way-indexed state per set (tag / dirty / RRPV / stamp) and
processes whole traces with two interchangeable engines:

* a **scalar** engine — an optimized per-access loop over Python lists,
  best for the scaled-down caches the sampled simulation uses (2-8 sets);
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
per miss. LRU consumes no draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

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
        self._rng = np.random.default_rng(seed)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        avail = len(self._buf) - self._pos
        if n <= avail:
            out = self._buf[self._pos:self._pos + n]
            self._pos += n
            return out
        head = self._buf[self._pos:]
        need = n - avail
        fresh = self._rng.random(max(need, self._BLOCK))
        self._buf = fresh
        self._pos = need
        return np.concatenate((head, fresh[:need]))

    def take_one(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(self._BLOCK)
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
        self._tag_to_way: List[Dict[int, int]] = [dict() for _ in range(sets)]
        self._way_tags: List[List[int]] = [[-1] * assoc for _ in range(sets)]
        self._way_dirty: List[List[bool]] = [[False] * assoc
                                             for _ in range(sets)]
        self._way_rrpv: List[List[int]] = [[0] * assoc for _ in range(sets)]
        self._way_stamp: List[List[int]] = [[0] * assoc for _ in range(sets)]
        self._stamp = 0

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
        draws = (self._draws.take(n)
                 if brrip and not draw_per_miss else None)

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
        # Matches the reference's per-access stamping: the line's final
        # stamp is that of the run's last access.
        stamps = self._stamp + 1 + last_idx
        draws_first = draws[fidx] if draws is not None else None

        counts = np.bincount(set_ids, minlength=self.sets)
        engine = self.force_engine or self._pick_engine(len(set_ids), counts)
        if draw_per_miss and brrip:
            engine = "scalar"   # per-miss draw order is serial by nature
        if engine == "wavefront":
            hits = self._access_wavefront(set_ids, tags, w_any, multi,
                                          stamps, draws_first, counts, call,
                                          fidx if record_victims else None)
        else:
            hits = self._access_scalar(set_ids, tags, w_any, multi,
                                       stamps, draws_first, call,
                                       fidx if record_victims else None,
                                       draw_per_miss=draw_per_miss and brrip)

        self._stamp += n
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
    def _access_scalar(self, set_ids: np.ndarray, tags: np.ndarray,
                       w_any: np.ndarray, multi: np.ndarray,
                       stamps: np.ndarray, draws: Optional[np.ndarray],
                       call: CacheAccessResult,
                       victim_fidx: Optional[np.ndarray] = None,
                       draw_per_miss: bool = False) -> np.ndarray:
        """Per-access loop over the collapsed trace (Python-list state)."""
        lru = self.policy is ReplacementPolicy.LRU
        assoc = self.assoc
        rrpv_max = self._RRPV_MAX
        t2w = self._tag_to_way
        all_tags = self._way_tags
        all_dirty = self._way_dirty
        all_rrpv = self._way_rrpv
        all_stamp = self._way_stamp
        sets = self.sets
        take_one = self._draws.take_one
        brrip_p = self._BRRIP_P
        near = (np.zeros(len(set_ids), dtype=bool) if draws is None
                else draws < self._BRRIP_P).tolist()
        fidx_list = (victim_fidx.tolist() if victim_fidx is not None
                     else None)
        victim_pos: List[int] = []
        victim_lines: List[int] = []
        hits = np.empty(len(set_ids), dtype=bool)
        evictions = 0
        dirty_evictions = 0
        for i, (s, t, w, mu, st) in enumerate(zip(
                set_ids.tolist(), tags.tolist(), w_any.tolist(),
                multi.tolist(), stamps.tolist())):
            ways = t2w[s]
            way = ways.get(t)
            if way is not None:
                hits[i] = True
                all_stamp[s][way] = st
                all_rrpv[s][way] = 0
                if w:
                    all_dirty[s][way] = True
                continue
            hits[i] = False
            set_tags = all_tags[s]
            set_dirty = all_dirty[s]
            set_rrpv = all_rrpv[s]
            set_stamp = all_stamp[s]
            if len(ways) >= assoc:
                if lru:
                    way = min(range(assoc), key=set_stamp.__getitem__)
                else:
                    top = max(set_rrpv)
                    if top < rrpv_max:
                        delta = rrpv_max - top
                        for k in range(assoc):
                            set_rrpv[k] += delta
                    way = set_rrpv.index(rrpv_max)
                del ways[set_tags[way]]
                evictions += 1
                if set_dirty[way]:
                    dirty_evictions += 1
                    if fidx_list is not None:
                        victim_pos.append(fidx_list[i])
                        victim_lines.append(set_tags[way] * sets + s)
            else:
                way = set_tags.index(-1)
            set_tags[way] = t
            ways[t] = way
            set_dirty[way] = w
            set_stamp[way] = st
            if lru:
                set_rrpv[way] = 0
            elif draw_per_miss:
                # access_one draws on every miss insert; run-tail hits
                # then reset RRPV to 0, but the draw is still consumed.
                is_near = take_one() < brrip_p
                if mu:
                    set_rrpv[way] = 0
                else:
                    set_rrpv[way] = rrpv_max - 2 if is_near else rrpv_max - 1
            elif mu:
                set_rrpv[way] = 0
            else:
                set_rrpv[way] = (rrpv_max - 2 if near[i]
                                 else rrpv_max - 1)
        call.evictions += evictions
        call.dirty_evictions += dirty_evictions
        if victim_fidx is not None:
            call.victims = (np.array(victim_pos, dtype=np.int64),
                            np.array(victim_lines, dtype=np.int64))
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
        """
        lru = self.policy is ReplacementPolicy.LRU
        rrpv_max = self._RRPV_MAX
        m = len(set_ids)

        # RRPV is never read under LRU, and stamps are never read under
        # BRRIP — each policy materializes only the state it observes.
        tag_m = np.asarray(self._way_tags, dtype=np.int64)
        dirty_m = np.asarray(self._way_dirty, dtype=bool)
        rrpv_m = None if lru else np.asarray(self._way_rrpv, dtype=np.int64)
        stamp_m = np.asarray(self._way_stamp, dtype=np.int64) if lru else None

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

        self._writeback_state(tag_m, dirty_m, rrpv_m, stamp_m)
        call.evictions += evictions
        call.dirty_evictions += dirty_evictions
        if victim_fidx is not None and victim_pos_chunks:
            pos = np.concatenate(victim_pos_chunks)
            lines = np.concatenate(victim_line_chunks)
            order_v = np.argsort(pos, kind="stable")
            call.victims = (pos[order_v], lines[order_v])
        return hits

    def _writeback_state(self, tag_m: np.ndarray, dirty_m: np.ndarray,
                         rrpv_m: Optional[np.ndarray],
                         stamp_m: Optional[np.ndarray]) -> None:
        self._way_tags = tag_m.tolist()
        self._way_dirty = dirty_m.tolist()
        if rrpv_m is not None:
            self._way_rrpv = rrpv_m.tolist()
        if stamp_m is not None:
            self._way_stamp = stamp_m.tolist()
        self._tag_to_way = [
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
        ways = self._tag_to_way[set_idx]
        self._stamp += 1
        self.result.accesses += 1
        way = ways.get(tag)
        set_tags = self._way_tags[set_idx]
        set_dirty = self._way_dirty[set_idx]
        set_rrpv = self._way_rrpv[set_idx]
        set_stamp = self._way_stamp[set_idx]
        if way is not None:
            self.result.hits += 1
            set_stamp[way] = self._stamp
            set_rrpv[way] = 0
            if write:
                set_dirty[way] = True
            return True, None
        self.result.misses += 1
        evicted_dirty: Optional[int] = None
        if len(ways) >= self.assoc:
            if self.policy is ReplacementPolicy.LRU:
                way = min(range(self.assoc), key=set_stamp.__getitem__)
            else:
                top = max(set_rrpv)
                if top < self._RRPV_MAX:
                    delta = self._RRPV_MAX - top
                    for k in range(self.assoc):
                        set_rrpv[k] += delta
                way = set_rrpv.index(self._RRPV_MAX)
            victim_tag = set_tags[way]
            del ways[victim_tag]
            self.result.evictions += 1
            if set_dirty[way]:
                self.result.dirty_evictions += 1
                evicted_dirty = victim_tag * self.sets + set_idx
        else:
            way = set_tags.index(-1)
        set_tags[way] = tag
        ways[tag] = way
        set_dirty[way] = write
        set_stamp[way] = self._stamp
        if self.policy is ReplacementPolicy.LRU:
            set_rrpv[way] = 0
        else:
            near = self._draws.take_one() < self._BRRIP_P
            set_rrpv[way] = self._RRPV_MAX - 2 if near else self._RRPV_MAX - 1
        return False, evicted_dirty

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        set_idx = line_addr % self.sets
        return (line_addr // self.sets) in self._tag_to_way[set_idx]

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (coherence invalidation). True if it was."""
        set_idx = line_addr % self.sets
        way = self._tag_to_way[set_idx].pop(line_addr // self.sets, None)
        if way is None:
            return False
        self._way_tags[set_idx][way] = -1
        self._way_dirty[set_idx][way] = False
        return True

    @property
    def occupied_lines(self) -> int:
        return sum(len(ways) for ways in self._tag_to_way)

    def reset(self) -> None:
        self._init_state()
        self.result = CacheAccessResult()
