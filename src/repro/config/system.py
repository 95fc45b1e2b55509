"""Machine configuration dataclasses (paper Table V).

The defaults reproduce the paper's evaluated system: an 8x8 mesh of tiles at
2.0 GHz, each tile holding a core (IO4 / OOO4 / OOO8), private L1I/L1D and L2,
one 1 MB bank of the shared static-NUCA L3, a core stream engine (SE_core),
and an L3 stream engine (SE_L3). Four corner memory controllers reach DDR4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Tuple

KB = 1024
MB = 1024 * KB


class CoreType(Enum):
    """The three evaluated core microarchitectures."""

    IO4 = "IO4"
    OOO4 = "OOO4"
    OOO8 = "OOO8"


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order (or in-order) core parameters.

    ``in_order`` cores have no reorder window: memory latency is overlapped
    only up to the LSQ depth, matching the paper's IO4 ("4-wide
    fetch/issue/commit, 10 IQ, 4 LSQ, 10 SB").
    """

    core_type: CoreType = CoreType.OOO8
    width: int = 8                 # fetch/issue/commit width
    iq_entries: int = 64
    lq_entries: int = 72
    sq_entries: int = 56
    rob_entries: int = 224
    int_regs: int = 348
    fp_regs: int = 348
    in_order: bool = False
    # Functional units (counts; OOO8 doubles the FU count per Table V).
    int_alus: int = 8
    int_mult_div: int = 4
    fp_alus: int = 4
    fp_divs: int = 4
    simd_width_bits: int = 512     # partial AVX-512 per the paper

    @staticmethod
    def io4() -> "CoreConfig":
        return CoreConfig(core_type=CoreType.IO4, width=4, iq_entries=10,
                          lq_entries=4, sq_entries=10, rob_entries=10,
                          int_regs=64, fp_regs=64, in_order=True,
                          int_alus=4, int_mult_div=2, fp_alus=2, fp_divs=2)

    @staticmethod
    def ooo4() -> "CoreConfig":
        return CoreConfig(core_type=CoreType.OOO4, width=4, iq_entries=24,
                          lq_entries=24, sq_entries=24, rob_entries=96,
                          int_regs=256, fp_regs=256, in_order=False,
                          int_alus=4, int_mult_div=2, fp_alus=2, fp_divs=2)

    @staticmethod
    def ooo8() -> "CoreConfig":
        return CoreConfig()


@dataclass(frozen=True)
class CacheConfig:
    """One cache level. Latencies are load-to-use in core cycles."""

    size_bytes: int
    assoc: int
    latency: int
    line_bytes: int = 64
    mshrs: int = 16

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets * self.assoc * self.line_bytes != self.size_bytes:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})")
        return sets


@dataclass(frozen=True)
class PrefetcherConfig:
    """Baseline L1 Bingo-like spatial prefetcher + L2 stride prefetcher."""

    enabled: bool = True
    l1_pht_bytes: int = 8 * KB
    l1_region_bytes: int = 2 * KB
    l1_streams: int = 16
    l1_depth: int = 16             # prefetches in flight per stream
    l2_stride: bool = True
    # Modelled accuracy/coverage on affine vs irregular access, calibrated to
    # "best multi-core prefetcher in DPC3" behaviour.
    affine_coverage: float = 0.85
    irregular_coverage: float = 0.10


#: Largest mesh dimension any preset or sweep axis accepts. A 64x64 mesh
#: (4096 tiles) is already far past the paper's 8x8 and the ROADMAP's
#: 32x32 target; anything bigger is almost certainly a typo'd sweep.
MAX_MESH_DIM = 64

#: Mesh widths with preset support, quoted in validation errors.
MESH_PRESET_WIDTHS = (4, 8, 16, 32, 64)


def _mesh_dim_hint() -> str:
    presets = ", ".join(f"{w}x{w} ({w * w} tiles)"
                        for w in MESH_PRESET_WIDTHS)
    return (f"supported preset sizes: {presets}; any WxH with "
            f"1 <= W, H <= {MAX_MESH_DIM} is accepted")


@dataclass(frozen=True)
class NocConfig:
    """8x8 mesh with 256-bit links, 1-cycle link latency, 5-stage routers."""

    mesh_width: int = 8
    mesh_height: int = 8
    link_bits: int = 256
    link_latency: int = 1
    router_latency: int = 5
    supports_multicast: bool = True
    control_msg_bytes: int = 8     # header-only control message payload
    header_bytes: int = 8          # per-message header overhead

    def __post_init__(self) -> None:
        for name, dim in (("mesh_width", self.mesh_width),
                          ("mesh_height", self.mesh_height)):
            if dim <= 0:
                raise ValueError(
                    f"{name} must be positive, got {dim}; "
                    f"{_mesh_dim_hint()}")
            if dim > MAX_MESH_DIM:
                raise ValueError(
                    f"{name}={dim} exceeds the {MAX_MESH_DIM}x"
                    f"{MAX_MESH_DIM} ceiling; {_mesh_dim_hint()}")

    @property
    def link_bytes(self) -> int:
        return self.link_bits // 8

    @property
    def num_tiles(self) -> int:
        return self.mesh_width * self.mesh_height


@dataclass(frozen=True)
class DramConfig:
    """DDR4-3200 behind four corner memory controllers.

    Table V's "25.6 GB/s" is one DDR4-3200 channel; each of the four corner
    controllers drives one channel, so aggregate bandwidth is 4 x 25.6.
    """

    controllers: int = 4
    bandwidth_gbps: float = 25.6   # per controller (one DDR4-3200 channel)
    latency_cycles: int = 160      # ~80ns at 2 GHz
    queue_penalty: float = 0.5     # extra cycles per queued access at load 1.0

    @property
    def total_bandwidth_gbps(self) -> float:
        return self.bandwidth_gbps * self.controllers


@dataclass(frozen=True)
class SEConfig:
    """Stream engine parameters for SE_core and SE_L3 (Table V right column).

    The per-core-type SE_core FIFO capacity follows the paper's
    "256B/1kB/2kB FIFO" for IO4/OOO4/OOO8.
    """

    core_streams: int = 12
    core_fifo_bytes: int = 2 * KB          # OOO8 default
    sccs: int = 2
    scc_rob_entries: int = 64              # total across SCCs (OOO8)
    scm_issue_latency: int = 4             # SE -> local SCM issue latency
    l3_streams_per_core: int = 12
    l3_stream_buffer_bytes: int = 64 * KB  # per bank, 1kB per core
    l3_config_bytes: int = 48 * KB
    range_sync_interval: int = 8           # iterations per range message (R)
    credit_chunk: int = 64                 # iterations granted per credit msg
    scalar_pe: bool = True
    mrsw_lock: bool = True
    affine_ranges_at_core: bool = True     # Fig 15 default
    indirect_reduce_min_factor: int = 4    # offload if len > 4 * #banks

    @staticmethod
    def for_core(core_type: CoreType) -> "SEConfig":
        fifo = {CoreType.IO4: 256, CoreType.OOO4: KB, CoreType.OOO8: 2 * KB}
        rob = {CoreType.IO4: 0, CoreType.OOO4: 32, CoreType.OOO8: 64}
        return SEConfig(core_fifo_bytes=fifo[core_type],
                        scc_rob_entries=rob[core_type])


@dataclass(frozen=True)
class AddressLayout:
    """The projection of :class:`SystemConfig` that fixes addresses.

    :class:`~repro.mem.address.AddressSpace` reads the tile count (the
    NUCA bank interleave) and the page fields; stream geometry adds the
    mesh dims (hops) and ``page_bytes`` (pages touched).  Nothing else
    in the config can move an address, so a functional trace recorded
    under one layout replays under every config sharing it.
    """

    mesh_width: int
    mesh_height: int
    page_bytes: int
    huge_page_bytes: int
    use_huge_pages: bool


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine description; the single argument to machine builders."""

    freq_ghz: float = 2.0
    core: CoreConfig = field(default_factory=CoreConfig.ooo8)
    noc: NocConfig = field(default_factory=NocConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    se: SEConfig = field(default_factory=lambda: SEConfig.for_core(CoreType.OOO8))
    l1i: CacheConfig = CacheConfig(32 * KB, 8, 2)
    l1d: CacheConfig = CacheConfig(32 * KB, 8, 2)
    l2: CacheConfig = CacheConfig(256 * KB, 16, 16)
    l3_bank: CacheConfig = CacheConfig(1 * MB, 16, 20)
    l1_tlb_entries: int = 64
    l2_tlb_entries: int = 2048
    se_l3_tlb_entries: int = 1024
    tlb_latency: int = 8
    page_bytes: int = 4 * KB
    huge_page_bytes: int = 2 * MB
    use_huge_pages: bool = True

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def io4(cores: int = 64) -> "SystemConfig":
        return SystemConfig(core=CoreConfig.io4(),
                            se=SEConfig.for_core(CoreType.IO4),
                            noc=_mesh_for(cores))

    @staticmethod
    def ooo4(cores: int = 64) -> "SystemConfig":
        return SystemConfig(core=CoreConfig.ooo4(),
                            se=SEConfig.for_core(CoreType.OOO4),
                            noc=_mesh_for(cores))

    @staticmethod
    def ooo8(cores: int = 64) -> "SystemConfig":
        return SystemConfig(noc=_mesh_for(cores))

    @staticmethod
    def paper_mesh(width: int, height: int = None) -> "SystemConfig":
        """The paper's OOO8 tile on a ``width`` x ``height`` mesh.

        The first-class big-mesh sweep axis: ``paper_mesh(16)`` is the
        256-tile point, ``paper_mesh(32)`` the 1024-tile one. Dimensions
        are validated like every other mesh (positive, <= 64).
        """
        height = width if height is None else height
        return SystemConfig(noc=NocConfig(mesh_width=width,
                                          mesh_height=height))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.noc.num_tiles

    @property
    def layout(self) -> AddressLayout:
        """The fields that fix addresses and stream geometry."""
        return AddressLayout(self.noc.mesh_width, self.noc.mesh_height,
                             self.page_bytes, self.huge_page_bytes,
                             self.use_huge_pages)

    @property
    def l3_total_bytes(self) -> int:
        return self.l3_bank.size_bytes * self.num_cores

    def scaled_private_caches(self, scale: float) -> "SystemConfig":
        """Shrink private cache capacities to match scaled-down inputs.

        Sampled simulation keeps capacity/footprint ratios honest: when a
        workload runs at 1/64 of its paper size, the L1/L2 the cache models
        see shrink by the same factor (with small floors), so miss rates
        match what the paper-sized run would show. Latencies are unchanged.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")

        def shrink(cache: CacheConfig, floor_bytes: int) -> CacheConfig:
            target = max(cache.size_bytes * scale, floor_bytes)
            assoc = cache.assoc
            while assoc > 2 and target / (assoc * cache.line_bytes) < 2:
                assoc //= 2
            sets = max(int(target / (assoc * cache.line_bytes)), 2)
            # Round sets down to a power of two for clean indexing.
            sets = 1 << max(sets.bit_length() - 1, 1)
            return replace(cache, size_bytes=sets * assoc * cache.line_bytes,
                           assoc=assoc)

        # Floors keep short-range reuse windows honest: 2-D stencil rows and
        # tree tops shrink as sqrt(scale), not scale, so a purely
        # proportional cache would thrash where the paper-sized run hits.
        return replace(self,
                       l1d=shrink(self.l1d, 1 * KB),
                       l1i=shrink(self.l1i, 1 * KB),
                       l2=shrink(self.l2, 4 * KB),
                       l3_bank=shrink(self.l3_bank, 32 * KB))

    def with_se(self, **changes) -> "SystemConfig":
        """Return a copy with stream-engine fields changed (for sweeps)."""
        return replace(self, se=replace(self.se, **changes))

    def with_core(self, **changes) -> "SystemConfig":
        return replace(self, core=replace(self.core, **changes))

    def with_noc(self, **changes) -> "SystemConfig":
        """Return a copy with NoC fields changed (mesh sweeps)."""
        return replace(self, noc=replace(self.noc, **changes))

    def describe(self) -> Dict[str, str]:
        """Human-readable parameter dump used by the Table V bench."""
        core = self.core
        return {
            "System": f"{self.freq_ghz:.1f}GHz, "
                      f"{self.noc.mesh_width}x{self.noc.mesh_height} cores",
            "Core": f"{core.core_type.value} ({core.width}-issue, "
                    f"{core.rob_entries} ROB, {core.lq_entries} LQ, "
                    f"{core.sq_entries} SQ)",
            "L1 I/D": f"{self.l1d.size_bytes // KB}KB, {self.l1d.assoc}-way, "
                      f"{self.l1d.latency}-cycle",
            "Priv. L2": f"{self.l2.size_bytes // KB}KB, {self.l2.assoc}-way, "
                        f"{self.l2.latency}-cycle",
            "Shared L3": f"{self.l3_bank.size_bytes // MB}MB per bank / "
                         f"{self.l3_bank.assoc}-way, {self.l3_bank.latency}-cycle, "
                         f"MESI, static NUCA, 64B interleave",
            "NoC": f"{self.noc.link_bits}-bit {self.noc.link_latency}-cycle link, "
                   f"{self.noc.mesh_width}x{self.noc.mesh_height} mesh, "
                   f"{self.noc.router_latency}-stage router, X-Y routing, "
                   f"{self.dram.controllers} corner mem. ctrl.",
            "DRAM": f"3200MHz DDR4 {self.dram.bandwidth_gbps:.1f} GB/s",
            "SE_core": f"{self.se.core_fifo_bytes}B FIFO, {self.se.core_streams} "
                       f"streams, {self.se.sccs} SCCs, "
                       f"{self.se.scc_rob_entries} ROB-entry",
            "SE_L3": f"{self.se.l3_streams_per_core} streams per core, "
                     f"{self.se.l3_stream_buffer_bytes // KB}kB stream buffer, "
                     f"{self.se.scm_issue_latency}-cycle lat. to local SCM",
        }


def _mesh_for(cores: int) -> NocConfig:
    """Build a (near-)square mesh holding ``cores`` tiles."""
    if cores <= 0:
        raise ValueError(
            f"core count must be positive, got {cores}; {_mesh_dim_hint()}")
    if cores > MAX_MESH_DIM * MAX_MESH_DIM:
        raise ValueError(
            f"core count {cores} exceeds the {MAX_MESH_DIM}x{MAX_MESH_DIM} "
            f"mesh ceiling; {_mesh_dim_hint()}")
    width = int(math.isqrt(cores))
    if width * width != cores:
        raise ValueError(f"core count {cores} is not a perfect square; "
                         f"{_mesh_dim_hint()}")
    return NocConfig(mesh_width=width, mesh_height=width)
