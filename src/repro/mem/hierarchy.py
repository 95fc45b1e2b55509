"""Private L1/L2 caches, the shared L3, and prefetcher models.

Per simulated core: an exact L1D and L2 (``CacheModel``). The shared L3 is a
machine-wide :class:`SharedL3Model` tracking resident lines with a capacity
bound — an intentionally coarser model, justified because the evaluated
workloads are sized to be LLC-resident (64 x 1 MB banks) so the L3's job is
mostly to absorb cold misses and very large scans.

:meth:`HierarchyModel.walk_elements` serves one core's accesses in program
order and reports the level that served each; the phase engine turns the
per-stream counts into hit rates, which the timing model converts into
stall cycles and the NoC model into traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.config import PrefetcherConfig, SystemConfig
from repro.mem.address import LINE_SHIFT
from repro.mem.cache import CacheModel, ReplacementPolicy


class SharedL3Model:
    """Machine-wide L3 occupancy model (LRU over resident lines).

    Tracks residency of physical lines across the whole static-NUCA L3. It is
    shared between cores, so one core's fetch warms the cache for everyone —
    the property that makes near-LLC computing attractive in the first place.
    A hit moves its line to the most-recently-used end; a miss past
    ``capacity_lines`` evicts the least recently used line.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.capacity_lines = config.l3_total_bytes >> LINE_SHIFT
        self._resident: "OrderedDict[int, bool]" = OrderedDict()  # line -> dirty
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, lines: np.ndarray,
               is_write: Optional[np.ndarray] = None) -> np.ndarray:
        """Process line addresses; returns the per-access hit mask.

        One ``get`` per access decides hit or miss; the oracle is
        ``shared_l3_access`` in ``tests/oracles/hierarchy.py``.
        """
        lines = np.asarray(lines, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(len(lines), dtype=bool)
        resident = self._resident
        get = resident.get
        to_end = resident.move_to_end
        capacity = self.capacity_lines
        mask = []
        hit = mask.append
        writebacks = 0
        for line, write in zip(lines.tolist(),
                               np.asarray(is_write, dtype=bool).tolist()):
            dirty = get(line)
            if dirty is None:
                hit(False)
                resident[line] = write
                if len(resident) > capacity \
                        and resident.popitem(last=False)[1]:
                    writebacks += 1
            else:
                hit(True)
                to_end(line)
                if write and not dirty:
                    resident[line] = True
        hit_mask = np.array(mask, dtype=bool)
        hits = int(np.count_nonzero(hit_mask))
        self.hits += hits
        self.misses += len(mask) - hits
        self.writebacks += writebacks
        return hit_mask

    def contains(self, line: int) -> bool:
        return line in self._resident

    def reset(self) -> None:
        self._resident.clear()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


class PrefetchModel:
    """Coverage model of the baseline L1 Bingo + L2 stride prefetchers.

    Rather than issuing individual prefetches, it reports what fraction of a
    trace's miss latency the prefetcher hides, given the trace's regularity
    (fraction of accesses that are affine/strided). The prefetcher also costs
    traffic: covered misses still move the line, plus a small over-fetch.
    """

    OVERFETCH = 0.08  # useless prefetches per useful one (Bingo is accurate)

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config

    def hidden_fraction(self, affine_fraction: float) -> float:
        if not self.config.enabled:
            return 0.0
        affine_fraction = min(max(affine_fraction, 0.0), 1.0)
        return (affine_fraction * self.config.affine_coverage
                + (1.0 - affine_fraction) * self.config.irregular_coverage)

    def extra_traffic_factor(self) -> float:
        """Multiplier on miss traffic due to inaccurate prefetches."""
        return 1.0 + (self.OVERFETCH if self.config.enabled else 0.0)


class HierarchyModel:
    """One core's private hierarchy bound to the machine-shared L3."""

    def __init__(self, config: SystemConfig, shared_l3: SharedL3Model,
                 core_id: int = 0) -> None:
        self.config = config
        self.core_id = core_id
        self.l1 = CacheModel(config.l1d, ReplacementPolicy.LRU,
                             seed=101 + core_id)
        self.l2 = CacheModel(config.l2, ReplacementPolicy.BRRIP,
                             seed=211 + core_id)
        self.shared_l3 = shared_l3
        self.prefetch = PrefetchModel(config.prefetcher)

    # Served-level codes returned by walk_elements.
    LEVELS = ("l1", "l2", "l3", "dram")

    def walk_elements(self, lines: np.ndarray, writes: np.ndarray,
                      skip_l1: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched program-order walk; bit-identical to the per-element
        oracle ``access_element`` (``tests/oracles/hierarchy.py``).

        Returns an int8 array of served levels (indices into ``LEVELS``)
        for each element. The walk is decomposed by level: the L1 has no
        feedback from below, so its whole subsequence runs first as one
        bulk :meth:`CacheModel.access` (wavefront-eligible); dirty L1
        victims are then chained into the L2 stream *before* the demand
        line of the same element (writeback-allocate order), and the L2
        runs with ``draw_per_miss`` so its BRRIP draws are consumed in the
        exact per-miss order of the scalar reference. Only demand L2
        misses reach the shared L3 — victim writebacks that miss the L2
        are dropped, as in the oracle.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = len(lines)
        levels = np.empty(n, dtype=np.int8)
        if n == 0:
            return levels
        writes = np.asarray(writes, dtype=bool)
        if skip_l1 is None:
            skip = np.zeros(n, dtype=bool)
        else:
            skip = np.asarray(skip_l1, dtype=bool)
        pos = np.arange(n, dtype=np.int64)

        # L1: whole non-skip subsequence in one bulk call (LRU, no draws).
        l1_pos = pos[~skip]
        l1_hit_full = np.zeros(n, dtype=bool)
        if len(l1_pos):
            l1_res = self.l1.access(lines[~skip], writes[~skip],
                                    record_victims=True)
            l1_hit_full[l1_pos] = l1_res.hit_mask
            v_sub, v_lines = l1_res.victims
            v_pos = l1_pos[v_sub]
        else:
            v_pos = np.empty(0, dtype=np.int64)
            v_lines = np.empty(0, dtype=np.int64)
        levels[l1_hit_full] = 0

        # L2: interleave victim writebacks (key 2p) ahead of same-element
        # demand lines (key 2p+1); every element that did not hit L1 is a
        # demand access.
        demand_mask = ~l1_hit_full
        demand_pos = pos[demand_mask]
        keys = np.concatenate((v_pos * 2, demand_pos * 2 + 1))
        l2_lines = np.concatenate((v_lines, lines[demand_mask]))
        l2_writes = np.concatenate((np.ones(len(v_pos), dtype=bool),
                                    writes[demand_mask]))
        is_demand = np.concatenate((np.zeros(len(v_pos), dtype=bool),
                                    np.ones(len(demand_pos), dtype=bool)))
        order = np.argsort(keys, kind="stable")
        l2_res = self.l2.access(l2_lines[order], l2_writes[order],
                                draw_per_miss=True)
        demand_hit = l2_res.hit_mask[is_demand[order]]
        levels[demand_pos[demand_hit]] = 1

        # L3: demand L2 misses only, in program order (LRU model).
        l3_pos = demand_pos[~demand_hit]
        if len(l3_pos):
            l3_mask = self.shared_l3.access(lines[l3_pos], writes[l3_pos])
            levels[l3_pos] = np.where(l3_mask, np.int8(2), np.int8(3))
        return levels

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
