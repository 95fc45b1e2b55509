"""Scalar oracle for the set-associative cache model.

:class:`ScalarCacheModel` is the executable specification of
:class:`repro.mem.cache.CacheModel`: a straightforward per-access loop with
way-indexed state. The vectorized engines must match it exactly — hits,
misses, evictions, dirty evictions, and the per-access hit mask — on any
trace; the hypothesis tests in ``tests/mem/test_cache_equivalence.py``
assert this for both LRU and BRRIP.

Semantics (shared with the fast model):

* a set's ways are indexed ``0..assoc-1``; a miss fills the lowest-indexed
  invalid way;
* the LRU victim is the way with the smallest stamp; the BRRIP victim is
  the lowest-indexed way with RRPV == max after one closed-form aging step
  (all ways aged by ``max_rrpv - current_max``);
* BRRIP insertion draws are position-addressed: a bulk ``access`` call
  consumes one uniform draw per trace position and a miss at position ``p``
  uses draw ``p``; ``access_one`` consumes one draw per miss; LRU draws
  nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.mem.cache import CacheAccessResult, DrawStream, ReplacementPolicy


class ScalarCacheModel:
    """Per-access reference implementation of the cache model."""

    _RRPV_MAX = 3
    _BRRIP_P = 0.03

    def __init__(self, config: CacheConfig,
                 policy: ReplacementPolicy = ReplacementPolicy.BRRIP,
                 seed: int = 11) -> None:
        self.config = config
        self.policy = policy
        self.sets = config.sets
        self.assoc = config.assoc
        self._draws = DrawStream(seed)
        self.result = CacheAccessResult()
        self._tag_to_way: List[Dict[int, int]] = [dict()
                                                  for _ in range(self.sets)]
        self._tags = [[-1] * self.assoc for _ in range(self.sets)]
        self._dirty = [[False] * self.assoc for _ in range(self.sets)]
        self._rrpv = [[0] * self.assoc for _ in range(self.sets)]
        self._stamps = [[0] * self.assoc for _ in range(self.sets)]
        self._stamp = 0

    # ------------------------------------------------------------------
    def _victim_way(self, set_idx: int) -> int:
        if self.policy is ReplacementPolicy.LRU:
            stamps = self._stamps[set_idx]
            return min(range(self.assoc), key=stamps.__getitem__)
        rrpv = self._rrpv[set_idx]
        top = max(rrpv)
        if top < self._RRPV_MAX:
            delta = self._RRPV_MAX - top
            for way in range(self.assoc):
                rrpv[way] += delta
        return rrpv.index(self._RRPV_MAX)

    def _apply(self, set_idx: int, tag: int, write: bool, stamp: int,
               near: bool, call: CacheAccessResult) -> Tuple[bool,
                                                             Optional[int]]:
        """One access against one set; returns (hit, evicted dirty tag)."""
        ways = self._tag_to_way[set_idx]
        way = ways.get(tag)
        call.accesses += 1
        if way is not None:
            call.hits += 1
            self._stamps[set_idx][way] = stamp
            self._rrpv[set_idx][way] = 0
            if write:
                self._dirty[set_idx][way] = True
            return True, None
        call.misses += 1
        evicted_dirty: Optional[int] = None
        if len(ways) >= self.assoc:
            way = self._victim_way(set_idx)
            victim_tag = self._tags[set_idx][way]
            del ways[victim_tag]
            call.evictions += 1
            if self._dirty[set_idx][way]:
                call.dirty_evictions += 1
                evicted_dirty = victim_tag
        else:
            way = self._tags[set_idx].index(-1)
        self._tags[set_idx][way] = tag
        ways[tag] = way
        self._dirty[set_idx][way] = write
        self._stamps[set_idx][way] = stamp
        if self.policy is ReplacementPolicy.LRU:
            self._rrpv[set_idx][way] = 0
        else:
            self._rrpv[set_idx][way] = (self._RRPV_MAX - 2 if near
                                        else self._RRPV_MAX - 1)
        return False, evicted_dirty

    # ------------------------------------------------------------------
    def access(self, line_addrs: np.ndarray,
               is_write: Optional[np.ndarray] = None) -> CacheAccessResult:
        """Run a trace of line addresses; returns stats for this call only."""
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
        if n == 0:
            self._accumulate(call)
            return call
        if line_addrs.min() < 0:
            raise ValueError("negative line addresses are not supported")
        if self.policy is ReplacementPolicy.BRRIP:
            near = (self._draws.take(n) < self._BRRIP_P).tolist()
        else:
            near = [False] * n
        for pos, (addr, write) in enumerate(zip(line_addrs.tolist(),
                                                is_write.tolist())):
            self._stamp += 1
            hit, _ = self._apply(addr % self.sets, addr // self.sets,
                                 write, self._stamp, near[pos], call)
            call.hit_mask[pos] = hit
        self._accumulate(call)
        return call

    def access_one(self, line_addr: int,
                   write: bool = False) -> Tuple[bool, Optional[int]]:
        """Process a single access; returns (hit, evicted dirty line)."""
        set_idx = line_addr % self.sets
        self._stamp += 1
        call = CacheAccessResult()
        # The draw must only be consumed on a miss, so probe first.
        tag = line_addr // self.sets
        will_miss = tag not in self._tag_to_way[set_idx]
        near = (self._draws.take_one() < self._BRRIP_P
                if will_miss and self.policy is ReplacementPolicy.BRRIP
                else False)
        hit, evicted_tag = self._apply(set_idx, tag, write, self._stamp,
                                       near, call)
        self._accumulate(call)
        if evicted_tag is None:
            return hit, None
        return hit, evicted_tag * self.sets + set_idx

    def _accumulate(self, call: CacheAccessResult) -> None:
        self.result.accesses += call.accesses
        self.result.hits += call.hits
        self.result.misses += call.misses
        self.result.evictions += call.evictions
        self.result.dirty_evictions += call.dirty_evictions

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        set_idx = line_addr % self.sets
        return (line_addr // self.sets) in self._tag_to_way[set_idx]

    @property
    def occupied_lines(self) -> int:
        return sum(len(ways) for ways in self._tag_to_way)
