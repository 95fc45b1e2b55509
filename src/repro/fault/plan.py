"""Seeded, deterministic fault injection (adversarial testing of §IV-B).

The paper's range-based synchronization exists to preserve sequential
memory semantics under imprecise, failure-prone execution: SE_L3 contexts
can be aborted by TLB shootdowns, alias checks can fire false positives,
MRSW locks can conflict, and SCC thread contexts can be evicted
mid-stream (Fig 7 b/c).  A :class:`FaultPlan` turns each of those protocol
sites into an injection point with a per-site rate, driven by a seeded RNG
so that

* the same plan always injects the same faults (same seed → bit-identical
  :class:`~repro.sim.results.SimResult`, including recovery statistics);
* functional results are untouched — faults only cost cycles, traffic and
  recovery episodes, never correctness (the semantic-invariance guarantee
  the property suite enforces);
* ``recovery_rate`` becomes a *derived* statistic
  (:attr:`FaultStats.derived_recovery_rate`) instead of a knob.

Draws are keyed by (site, context) — phase and stream names — not by call
order, so adding an unrelated stream never perturbs another stream's
injections.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np


class FaultSite(Enum):
    """Where a fault is injected in the protocol stack."""

    #: SE_L3-co-located TLB miss / shootdown aborting a stream context.
    TLB_MISS = "tlb_miss"
    #: Alias-check false positive forcing a precise-state recovery.
    ALIAS = "alias"
    #: MRSW lock-acquire conflict (a reader forced to serialize).
    LOCK_CONFLICT = "lock_conflict"
    #: SCC thread context evicted mid-stream (SMT pressure from the host).
    SCC_EVICT = "scc_evict"


#: Sites whose faults end in a precise-state recovery episode.
RECOVERY_SITES = (FaultSite.TLB_MISS, FaultSite.ALIAS, FaultSite.SCC_EVICT)


@dataclass(frozen=True)
class FaultPlan:
    """Per-site injection rates plus the seed that fixes every draw.

    Rates are events per million opportunities at their site:

    * ``alias_rate`` — per million offloaded iterations;
    * ``tlb_miss_rate`` — per million pages the SE's range unit touches
      (the SE caches one translation per page, §IV-B);
    * ``lock_conflict_rate`` — per million lock acquires;
    * ``scc_evict_rate`` — per million offloaded compute instances.
    """

    seed: int = 0
    alias_rate: float = 0.0
    tlb_miss_rate: float = 0.0
    lock_conflict_rate: float = 0.0
    scc_evict_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alias_rate", "tlb_miss_rate", "lock_conflict_rate",
                     "scc_evict_rate"):
            value = getattr(self, name)
            # ``nan < 0`` is False, so finiteness needs its own check.
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """One rate applied at every site."""
        return cls(seed=seed, alias_rate=rate, tlb_miss_rate=rate,
                   lock_conflict_rate=rate, scc_evict_rate=rate)

    def rate(self, site: FaultSite) -> float:
        return {
            FaultSite.ALIAS: self.alias_rate,
            FaultSite.TLB_MISS: self.tlb_miss_rate,
            FaultSite.LOCK_CONFLICT: self.lock_conflict_rate,
            FaultSite.SCC_EVICT: self.scc_evict_rate,
        }[site]

    def is_null(self) -> bool:
        """True when no site can ever fire (a strict no-op plan)."""
        return not any(self.rate(site) for site in FaultSite)

    # ------------------------------------------------------------------
    # Deterministic draws
    # ------------------------------------------------------------------
    def rng(self, site: FaultSite, *key: object) -> np.random.Generator:
        """An RNG whose stream depends only on (seed, site, key)."""
        # numpy loads here, not with the module: a stored SimResult names
        # FaultStats, and a cached lookup needs no numpy (DESIGN.md §5i).
        import numpy as np
        material = "\x1f".join([str(self.seed), site.value]
                               + [str(k) for k in key])
        digest = hashlib.sha256(material.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def draw_events(self, site: FaultSite, opportunities: float,
                    *key: object) -> int:
        """Number of faults at ``site`` over ``opportunities`` trials.

        Binomial with p = rate / 1e6, capped so a pathological rate can
        never inject more faults than there are opportunities.
        """
        rate = self.rate(site)
        n = int(opportunities)
        if rate <= 0.0 or n <= 0:
            return 0
        p = min(rate / 1e6, 1.0)
        return int(self.rng(site, *key).binomial(n, p))

    def draw_chunk_indices(self, site: FaultSite, n_events: int,
                           n_chunks: int, *key: object) -> np.ndarray:
        """The credit-chunk indices at which each fault fires (sorted)."""
        import numpy as np
        if n_events <= 0 or n_chunks <= 0:
            return np.empty(0, dtype=np.int64)
        rng = self.rng(site, "chunk", *key)
        return np.sort(rng.integers(0, n_chunks, size=n_events,
                                    dtype=np.int64))

    def draw_uncommitted_depths(self, site: FaultSite, n_events: int,
                                max_chunks: int, *key: object) -> np.ndarray:
        """Uncommitted credit chunks discarded by each recovery episode."""
        import numpy as np
        if n_events <= 0:
            return np.empty(0, dtype=np.int64)
        rng = self.rng(site, "depth", *key)
        return rng.integers(1, max(max_chunks, 1) + 1, size=n_events,
                            dtype=np.int64)


@dataclass
class FaultStats:
    """What a fault-injected run actually experienced.

    ``committed_iterations + reexecuted_iterations ==
    offloaded_iterations`` for any recovery schedule — the episode
    accounting invariant the property suite checks.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    recovery_episodes: int = 0
    offloaded_iterations: float = 0.0
    committed_iterations: float = 0.0
    reexecuted_iterations: float = 0.0
    recovery_cycles: float = 0.0
    injected_lock_conflicts: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def derived_recovery_rate(self) -> float:
        """Realized recovery episodes per million offloaded iterations —
        the statistic that used to be the ``recovery_rate`` input knob."""
        if self.offloaded_iterations <= 0:
            return 0.0
        return self.recovery_episodes * 1e6 / self.offloaded_iterations

    def record(self, site: FaultSite, count: int) -> None:
        if count:
            self.injected[site.value] = self.injected.get(site.value, 0) \
                + int(count)

    def merged_with(self, other: "FaultStats") -> "FaultStats":
        injected = dict(self.injected)
        for site, count in other.injected.items():
            injected[site] = injected.get(site, 0) + count
        return FaultStats(
            injected=injected,
            recovery_episodes=self.recovery_episodes
            + other.recovery_episodes,
            offloaded_iterations=self.offloaded_iterations
            + other.offloaded_iterations,
            committed_iterations=self.committed_iterations
            + other.committed_iterations,
            reexecuted_iterations=self.reexecuted_iterations
            + other.reexecuted_iterations,
            recovery_cycles=self.recovery_cycles + other.recovery_cycles,
            injected_lock_conflicts=self.injected_lock_conflicts
            + other.injected_lock_conflicts,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "injected": dict(sorted(self.injected.items())),
            "recovery_episodes": self.recovery_episodes,
            "offloaded_iterations": self.offloaded_iterations,
            "committed_iterations": self.committed_iterations,
            "reexecuted_iterations": self.reexecuted_iterations,
            "recovery_cycles": self.recovery_cycles,
            "injected_lock_conflicts": self.injected_lock_conflicts,
            "derived_recovery_rate": self.derived_recovery_rate,
        }
