"""Private L1/L2 caches, the shared L3, and prefetcher models.

Per simulated core: an exact L1D and L2 (``CacheModel``). The shared L3 is a
machine-wide :class:`SharedL3Model` tracking resident lines with a capacity
bound — an intentionally coarser model, justified because the evaluated
workloads are sized to be LLC-resident (64 x 1 MB banks) so the L3's job is
mostly to absorb cold misses and very large scans.

:class:`AccessProfile` is the hierarchy's answer for one trace: how many
accesses hit at each level, how many went to DRAM, and how many dirty lines
were written back. The timing model converts it into stall cycles, and the
NoC model converts the L2-miss flows into traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.config import PrefetcherConfig, SystemConfig
from repro.mem.address import LINE_SHIFT, AddressSpace
from repro.mem.cache import CacheModel, ReplacementPolicy


@dataclass
class AccessProfile:
    """Per-level outcome of a memory access trace."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    l1_writebacks: int = 0
    l2_writebacks: int = 0
    l3_writebacks: int = 0
    prefetch_hidden_fraction: float = 0.0

    @property
    def l2_misses(self) -> int:
        """Accesses leaving the private hierarchy (L3 lookups)."""
        return self.l3_hits + self.dram_accesses

    def merged_with(self, other: "AccessProfile") -> "AccessProfile":
        merged = AccessProfile(
            accesses=self.accesses + other.accesses,
            l1_hits=self.l1_hits + other.l1_hits,
            l2_hits=self.l2_hits + other.l2_hits,
            l3_hits=self.l3_hits + other.l3_hits,
            dram_accesses=self.dram_accesses + other.dram_accesses,
            l1_writebacks=self.l1_writebacks + other.l1_writebacks,
            l2_writebacks=self.l2_writebacks + other.l2_writebacks,
            l3_writebacks=self.l3_writebacks + other.l3_writebacks,
        )
        total = merged.accesses
        if total:
            merged.prefetch_hidden_fraction = (
                self.prefetch_hidden_fraction * self.accesses
                + other.prefetch_hidden_fraction * other.accesses) / total
        return merged

    def scaled(self, factor: float) -> "AccessProfile":
        out = AccessProfile(
            accesses=int(round(self.accesses * factor)),
            l1_hits=int(round(self.l1_hits * factor)),
            l2_hits=int(round(self.l2_hits * factor)),
            l3_hits=int(round(self.l3_hits * factor)),
            dram_accesses=int(round(self.dram_accesses * factor)),
            l1_writebacks=int(round(self.l1_writebacks * factor)),
            l2_writebacks=int(round(self.l2_writebacks * factor)),
            l3_writebacks=int(round(self.l3_writebacks * factor)),
            prefetch_hidden_fraction=self.prefetch_hidden_fraction,
        )
        return out


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
        """Process line addresses; returns the per-access hit mask."""
        lines = np.asarray(lines, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(len(lines), dtype=bool)
        hit_mask = np.zeros(len(lines), dtype=bool)
        resident = self._resident
        for pos, (line, write) in enumerate(zip(lines.tolist(),
                                                is_write.tolist())):
            if line in resident:
                self.hits += 1
                hit_mask[pos] = True
                resident[line] = resident[line] or write
                resident.move_to_end(line)
            else:
                self.misses += 1
                resident[line] = bool(write)
                if len(resident) > self.capacity_lines:
                    _, dirty = resident.popitem(last=False)
                    if dirty:
                        self.writebacks += 1
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

    def run_trace(self, space: AddressSpace, vaddrs: np.ndarray,
                  is_write: Optional[np.ndarray] = None,
                  affine_fraction: float = 0.0,
                  bypass_private: bool = False,
                  skip_l1: bool = False) -> AccessProfile:
        """Push one trace through L1 -> L2 -> L3; returns the profile.

        ``bypass_private`` models accesses that skip the private caches
        entirely (offloaded stream requests are issued at the L3 banks);
        ``skip_l1`` models SE_core stream fetches that fill the FIFO and L2
        but never pollute the L1.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        profile = AccessProfile(accesses=len(vaddrs))
        if len(vaddrs) == 0:
            return profile
        if is_write is None:
            is_write = np.zeros(len(vaddrs), dtype=bool)
        paddrs = space.translate(vaddrs)
        lines = paddrs >> LINE_SHIFT

        if bypass_private:
            l3_mask = self.shared_l3.access(lines, is_write)
            profile.l3_hits = int(l3_mask.sum())
            profile.dram_accesses = len(lines) - profile.l3_hits
            return profile

        if skip_l1:
            l1_miss_mask = np.ones(len(lines), dtype=bool)
        else:
            l1_res = self.l1.access(lines, is_write)
            profile.l1_hits = l1_res.hits
            profile.l1_writebacks = l1_res.dirty_evictions
            l1_miss_mask = ~l1_res.hit_mask
        l2_lines = lines[l1_miss_mask]
        l2_writes = is_write[l1_miss_mask]
        if len(l2_lines):
            l2_res = self.l2.access(l2_lines, l2_writes)
            profile.l2_hits = l2_res.hits
            profile.l2_writebacks = l2_res.dirty_evictions
            l3_lines = l2_lines[~l2_res.hit_mask]
            l3_writes = l2_writes[~l2_res.hit_mask]
            if len(l3_lines):
                l3_mask = self.shared_l3.access(l3_lines, l3_writes)
                profile.l3_hits = int(l3_mask.sum())
                profile.dram_accesses = len(l3_lines) - profile.l3_hits
        profile.prefetch_hidden_fraction = self.prefetch.hidden_fraction(
            affine_fraction)
        return profile

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
