"""Per-figure experiment drivers (Figs 1, 9-17).

Each function returns plain data structures (dicts keyed by workload and
mode/sweep point) so benchmarks can print them and tests can assert the
paper's shape claims against them. ``run_all_modes`` memoizes full sweeps —
several figures share the same runs.

All drivers funnel through :func:`repro.eval.sweep.run_sweep`, so
``EvalConfig(jobs=N)`` parallelizes any figure and
``EvalConfig(use_cache=True)`` persists results across processes.

A figure served from the result cache never imports the simulation
engine: :func:`~repro.sim.ideal.ideal_traffic` and
:func:`~repro.sim.run.run_workload` resolve on first use (PEP 562), and
Fig 1b calls ``ideal_traffic`` through this module's attribute so a
wrapper installed on it sees every call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro._lazy import lazy_exports
from repro.config.system import SystemConfig
from repro.eval.report import geomean
from repro.eval.result_cache import ResultCache, config_fingerprint, \
    get_default_cache
from repro.eval.sweep import SweepPoint, run_sweep
from repro.isa.instructions import UopKind
from repro.mem.locks import contention_eliminated
from repro.offload.modes import ExecMode
from repro.sim.results import SimResult
from repro.workloads import WORKLOAD_NAMES

__getattr__, __dir__, _ = lazy_exports(__name__, {
    "ideal_traffic": "repro.sim.ideal",
    "run_workload": "repro.sim.run",
})

DEFAULT_MODES: Tuple[ExecMode, ...] = (
    ExecMode.BASE, ExecMode.INST, ExecMode.SINGLE, ExecMode.NS_CORE,
    ExecMode.NS_NO_COMP, ExecMode.NS, ExecMode.NS_NO_SYNC,
    ExecMode.NS_DECOUPLE,
)

AFFINE_WORKLOADS = ("pathfinder", "srad", "hotspot", "hotspot3D",
                    "histogram")
ATOMIC_WORKLOADS = ("bfs_push", "pr_push", "sssp")
SIMD_WORKLOADS = ("pathfinder", "srad", "hotspot", "hotspot3D")


@dataclass(frozen=True)
class EvalConfig:
    """Shared experiment parameters.

    ``jobs`` fans sweep points over that many worker processes (None →
    ``$REPRO_JOBS`` or serial; 0 → all cores); results are bit-identical
    regardless. ``use_cache`` consults and fills the persistent on-disk
    result cache (see :mod:`repro.eval.result_cache`).
    """

    scale: float = 1.0 / 64.0
    seed: int = 42
    sample_cores: int = 4
    workloads: Tuple[str, ...] = ()
    config: Optional[SystemConfig] = None
    jobs: Optional[int] = None
    use_cache: bool = False

    def workload_names(self) -> List[str]:
        return list(self.workloads or WORKLOAD_NAMES)

    def system(self) -> SystemConfig:
        return self.config or SystemConfig.ooo8()

    def result_cache(self) -> Optional[ResultCache]:
        return get_default_cache() if self.use_cache else None

    def point(self, workload: str, mode: ExecMode,
              system: Optional[SystemConfig] = None) -> SweepPoint:
        """A sweep point for this config (``system`` overrides the preset)."""
        return SweepPoint(workload=workload, mode=mode,
                          config=system or self.system(), scale=self.scale,
                          seed=self.seed, sample_cores=self.sample_cores)

    def sweep(self, points: Sequence[SweepPoint]
              ) -> Dict[SweepPoint, SimResult]:
        """Every point's result; raises
        :class:`~repro.eval.sweep.SweepFailed` if any point failed, so a
        figure never reads (and ``run_all_modes`` never memoizes) a
        partial sweep."""
        return run_sweep(points, jobs=self.jobs,
                         cache=self.result_cache()).raise_on_failure()


_SWEEP_CACHE: Dict[Tuple, Dict[str, Dict[ExecMode, SimResult]]] = {}


def run_all_modes(cfg: EvalConfig,
                  modes: Sequence[ExecMode] = DEFAULT_MODES
                  ) -> Dict[str, Dict[ExecMode, SimResult]]:
    """Run every workload under every mode (memoized per EvalConfig).

    The memo key hashes the full ``SystemConfig`` contents, so two equal
    configs share an entry no matter how they were constructed. Each
    workload's input data and traces are built once and reused across all
    modes (the sweep harness groups points per workload+config).
    """
    key = (cfg.scale, cfg.seed, cfg.sample_cores,
           tuple(cfg.workload_names()), config_fingerprint(cfg.system()),
           tuple(modes))
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    points = [cfg.point(name, mode)
              for name in cfg.workload_names() for mode in modes]
    by_point = cfg.sweep(points)
    results: Dict[str, Dict[ExecMode, SimResult]] = {}
    for point, result in by_point.items():
        results.setdefault(point.workload, {})[point.mode] = result
    _SWEEP_CACHE[key] = results
    return results


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def fig1a_stream_op_breakdown(cfg: EvalConfig = EvalConfig()
                              ) -> Dict[str, Dict[str, float]]:
    """Fraction of dynamic micro-ops associated with streams, by category."""
    results = run_all_modes(cfg, modes=(ExecMode.BASE,))
    out: Dict[str, Dict[str, float]] = {}
    for name, by_mode in results.items():
        uops = by_mode[ExecMode.BASE].baseline_uops
        total = uops.total()
        out[name] = {
            "load": (uops.get(UopKind.STREAM_LOAD)
                     + uops.get(UopKind.STREAM_COMPUTE)) / total,
            "store": uops.get(UopKind.STREAM_STORE) / total,
            "atomic": uops.get(UopKind.STREAM_ATOMIC) / total,
            "update": uops.get(UopKind.STREAM_UPDATE) / total,
            "reduce": uops.get(UopKind.STREAM_REDUCE) / total,
            "stream_total": uops.stream_fraction(),
        }
    return out


def fig1b_ideal_traffic(cfg: EvalConfig = EvalConfig()
                        ) -> Dict[str, Dict[str, float]]:
    """Bytes x hops of No-Priv$, Perf-Priv$ and Perf-Near-LLC, normalized
    to No-Priv$.

    Each workload's functional trace comes from the store when
    ``cfg.use_cache`` is set (the one the figure sweeps recorded), else
    it is recorded in memory; a trace recorded here is stored with its
    geometry like any run's.
    """
    from repro.workloads.build_cache import load_or_record, save_trace
    ideal = getattr(sys.modules[__name__], "ideal_traffic")
    cache = cfg.result_cache()
    out: Dict[str, Dict[str, float]] = {}
    system = cfg.system()
    for name in cfg.workload_names():
        trace = load_or_record(name, cfg.scale, cfg.seed, system, cache)
        raw = ideal(trace, config=system, sample_cores=cfg.sample_cores)
        save_trace(trace, cache)
        base = max(raw["no_priv"], 1e-9)
        out[name] = {k: v / base for k, v in raw.items()}
    return out


# ----------------------------------------------------------------------
# Figures 9-12 (main results)
# ----------------------------------------------------------------------
def fig9_overall_speedup(cfg: EvalConfig = EvalConfig()
                         ) -> Dict[str, Dict[str, float]]:
    """Speedup over the baseline OOO8 core, per workload and mode."""
    results = run_all_modes(cfg)
    out: Dict[str, Dict[str, float]] = {}
    for name, by_mode in results.items():
        base = by_mode[ExecMode.BASE]
        out[name] = {mode.value: r.speedup_over(base) if mode
                     is not ExecMode.BASE else 1.0
                     for mode, r in by_mode.items()}
    out["geomean"] = {
        mode.value: geomean([out[n][mode.value]
                             for n in cfg.workload_names()])
        for mode in DEFAULT_MODES
    }
    return out


def fig10_energy_performance(cfg: EvalConfig = EvalConfig(),
                             core_types: Sequence[str] = ("IO4", "OOO4",
                                                          "OOO8")
                             ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Normalized energy and performance per core type and mode.

    Returns {core_type: {mode: {"speedup": s, "energy_eff": e}}}, both
    relative to that core type's baseline.
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for core_type in core_types:
        system = {"IO4": SystemConfig.io4, "OOO4": SystemConfig.ooo4,
                  "OOO8": SystemConfig.ooo8}[core_type]()
        sub = replace(cfg, config=system)
        results = run_all_modes(sub)
        per_mode: Dict[str, Dict[str, float]] = {}
        for mode in DEFAULT_MODES:
            speedups, energies = [], []
            for name in sub.workload_names():
                base = results[name][ExecMode.BASE]
                r = results[name][mode]
                speedups.append(r.speedup_over(base) if mode
                                is not ExecMode.BASE else 1.0)
                energies.append(r.energy_efficiency_over(base) if mode
                                is not ExecMode.BASE else 1.0)
            per_mode[mode.value] = {"speedup": geomean(speedups),
                                    "energy_eff": geomean(energies)}
        out[core_type] = per_mode
    return out


def fig11_offload_fractions(cfg: EvalConfig = EvalConfig(),
                            mode: ExecMode = ExecMode.NS
                            ) -> Dict[str, Dict[str, float]]:
    """Stream-associated vs actually-offloaded micro-op fractions (Fig 11)."""
    results = run_all_modes(cfg)
    out: Dict[str, Dict[str, float]] = {}
    for name, by_mode in results.items():
        r = by_mode[mode]
        out[name] = {
            "stream_associated": r.offloadable_fraction(),
            "offloaded": r.offloaded_fraction(),
        }
    assoc = [v["stream_associated"] for v in out.values()
             if v["stream_associated"] > 0]
    offl = [v["offloaded"] for v in out.values() if v["offloaded"] > 0]
    out["average"] = {
        "stream_associated": sum(assoc) / max(len(assoc), 1),
        "offloaded": sum(offl) / max(len(offl), 1),
    }
    return out


def fig12_traffic_breakdown(cfg: EvalConfig = EvalConfig()
                            ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """NoC traffic by class, normalized to the baseline's total (Fig 12)."""
    results = run_all_modes(cfg)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, by_mode in results.items():
        base_total = max(
            by_mode[ExecMode.BASE].traffic.total_byte_hops, 1e-9)
        out[name] = {}
        for mode, r in by_mode.items():
            breakdown = r.traffic.breakdown()
            out[name][mode.value] = {
                cls: v / base_total for cls, v in breakdown.items()
            }
            out[name][mode.value]["total"] = \
                r.traffic.total_byte_hops / base_total
    return out


# ----------------------------------------------------------------------
# Figures 13-17 (sensitivity studies)
# ----------------------------------------------------------------------
def _geomean_speedup(results: Dict[SweepPoint, SimResult], cfg: EvalConfig,
                     system: SystemConfig, mode: ExecMode,
                     names: Sequence[str]) -> float:
    """Geomean speedup of ``mode`` over BASE from a sweep's results."""
    speeds = []
    for name in names:
        base = results[cfg.point(name, ExecMode.BASE, system)]
        r = results[cfg.point(name, mode, system)]
        speeds.append(r.speedup_over(base))
    return geomean(speeds)


def fig13_scm_latency_sensitivity(cfg: EvalConfig = EvalConfig(),
                                  latencies: Sequence[int] = (1, 4, 8, 16),
                                  modes: Sequence[ExecMode] = (
                                      ExecMode.NS, ExecMode.NS_NO_SYNC,
                                      ExecMode.NS_DECOUPLE),
                                  ) -> Dict[str, Dict[int, float]]:
    """Performance vs SE_L3 -> SCM issue latency, normalized to NS @ 1."""
    names = cfg.workload_names()
    systems = {latency: cfg.system().with_se(scm_issue_latency=latency)
               for latency in latencies}
    points = [cfg.point(name, mode, system)
              for system in systems.values()
              for mode in (*modes, ExecMode.BASE)
              for name in names]
    results = cfg.sweep(points)
    raw = {mode.value: {latency: _geomean_speedup(results, cfg, system,
                                                  mode, names)
                        for latency, system in systems.items()}
           for mode in modes}
    ref = raw[ExecMode.NS.value][latencies[0]]
    return {mode: {lat: v / ref for lat, v in series.items()}
            for mode, series in raw.items()}


def fig14_scc_rob_sensitivity(cfg: EvalConfig = EvalConfig(),
                              rob_sizes: Sequence[int] = (8, 16, 32, 64),
                              mode: ExecMode = ExecMode.NS_DECOUPLE
                              ) -> Dict[str, Dict[int, float]]:
    """Per-workload performance vs total SCC ROB entries (normalized to
    the largest size)."""
    names = cfg.workload_names()
    systems = {rob: cfg.system().with_se(scc_rob_entries=rob)
               for rob in rob_sizes}
    points = [cfg.point(name, m, system)
              for system in systems.values()
              for m in (ExecMode.BASE, mode)
              for name in names]
    results = cfg.sweep(points)
    out: Dict[str, Dict[int, float]] = {name: {} for name in names}
    for rob, system in systems.items():
        for name in names:
            base = results[cfg.point(name, ExecMode.BASE, system)]
            r = results[cfg.point(name, mode, system)]
            out[name][rob] = r.speedup_over(base)
    biggest = rob_sizes[-1]
    return {name: {rob: v / series[biggest] for rob, v in series.items()}
            for name, series in out.items()}


def fig15_affine_range_generation(cfg: EvalConfig = EvalConfig(),
                                  workloads: Sequence[str] = AFFINE_WORKLOADS
                                  ) -> Dict[str, Dict[str, float]]:
    """SE_core- vs SE_L3-generated affine ranges: speedup and traffic (NS).

    Returns per-workload {speedup_ratio, traffic_ratio} of core-generated
    over L3-generated (paper: +5% performance, -15% traffic).
    """
    at_core = cfg.system().with_se(affine_ranges_at_core=True)
    at_l3 = cfg.system().with_se(affine_ranges_at_core=False)
    points = [cfg.point(name, ExecMode.NS, system)
              for system in (at_core, at_l3) for name in workloads]
    results = cfg.sweep(points)
    out: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        r_core = results[cfg.point(name, ExecMode.NS, at_core)]
        r_l3 = results[cfg.point(name, ExecMode.NS, at_l3)]
        out[name] = {
            "speedup_ratio": r_l3.cycles / r_core.cycles,
            "traffic_ratio": (r_core.traffic.total_byte_hops
                              / max(r_l3.traffic.total_byte_hops, 1e-9)),
        }
    return out


def fig16_lock_types(cfg: EvalConfig = EvalConfig(),
                     workloads: Sequence[str] = ATOMIC_WORKLOADS,
                     modes: Sequence[ExecMode] = (ExecMode.NS,
                                                  ExecMode.NS_NO_SYNC)
                     ) -> Dict[str, Dict[str, float]]:
    """Exclusive vs MRSW lock performance plus contention statistics."""
    mrsw_cfg = cfg.system().with_se(mrsw_lock=True)
    excl_cfg = cfg.system().with_se(mrsw_lock=False)
    points = [cfg.point(name, mode, system)
              for system in (mrsw_cfg, excl_cfg)
              for mode in modes for name in workloads]
    results = cfg.sweep(points)
    out: Dict[str, Dict[str, float]] = {}
    for name in workloads:
        row: Dict[str, float] = {}
        for mode in modes:
            r_mrsw = results[cfg.point(name, mode, mrsw_cfg)]
            r_excl = results[cfg.point(name, mode, excl_cfg)]
            row[f"{mode.value}_mrsw_speedup"] = \
                r_excl.cycles / r_mrsw.cycles
            if mode is ExecMode.NS and r_mrsw.lock_stats is not None \
                    and r_excl.lock_stats is not None:
                row["contention_eliminated"] = contention_eliminated(
                    r_excl.lock_stats, r_mrsw.lock_stats)
                row["mrsw_conflict_rate"] = r_mrsw.lock_stats.conflict_rate
        out[name] = row
    return out


def fig17_scalar_pe(cfg: EvalConfig = EvalConfig(),
                    mode: ExecMode = ExecMode.NS_DECOUPLE
                    ) -> Dict[str, float]:
    """Speedup of having the scalar PE, per workload (NS_decouple)."""
    with_pe = cfg.system().with_se(scalar_pe=True)
    without = cfg.system().with_se(scalar_pe=False)
    points = [cfg.point(name, mode, system)
              for system in (with_pe, without)
              for name in cfg.workload_names()]
    results = cfg.sweep(points)
    out: Dict[str, float] = {}
    for name in cfg.workload_names():
        r_with = results[cfg.point(name, mode, with_pe)]
        r_without = results[cfg.point(name, mode, without)]
        out[name] = r_without.cycles / r_with.cycles
    out["geomean"] = geomean([v for k, v in out.items() if k != "geomean"])
    return out
