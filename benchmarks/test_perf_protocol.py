"""Protocol engine perf + big-mesh scaling curves.

Three benches, all logging to ``$REPRO_BENCH_LOG`` (``BENCH_PR7.json``):

* ``protocol_engine`` — captures the *actual* episode batches a bfs_push
  run on a 16x16 mesh feeds the protocol engine, then times the
  event-driven oracle (``tests/oracles/rangesync.py``) against the
  engine on those exact parameters: the ">= 4x protocol-stage speedup"
  gate.
* ``scaling`` — speedup and NoC traffic vs. tile count (64 / 256 / 1024
  tiles) for bfs_push, sssp, and the dense pathfinder stencil; the rows
  EXPERIMENTS.md's scaling section quotes.  (pathfinder is the dense
  kernel because its working set still generates shared-LLC traffic at
  1024 tiles; hotspot/srad strong-scale into private caches there, so
  their base traffic collapses to zero and the ratios degenerate.)
* ``sweep32`` — one 32x32 sweep point through ``run_sweep`` under the
  default timeout, proving the 1024-tile configuration is tractable
  end to end.

Every record carries the ``tiles`` / ``mesh`` fields from
:func:`~repro.eval.benchlog.mesh_fields` so scaling curves can be
plotted straight off the log.
"""

import os
import time

import pytest

from repro.config import SystemConfig
from repro.eval.benchlog import mesh_fields
from repro.eval.sweep import SweepPoint, run_sweep
from repro.llc.rangesync import run_protocol_batch
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from tests.oracles.rangesync import run_protocol_batch_reference

SCALE = float(os.environ.get("REPRO_SCALE") or 1.0 / 64.0)

SCALING_WORKLOADS = ("bfs_push", "sssp", "pathfinder")
SCALING_WIDTHS = (8, 16, 32)


def _capture_episode_batches(workload, config):
    """The ProtocolParams batches a real run feeds the engine."""
    import repro.sim.phase as phase_mod
    captured = []
    real = phase_mod.run_protocol_batch

    def recording(batch, tracer=None, labels=None):
        if batch:
            captured.append(list(batch))
        return real(batch, tracer=tracer, labels=labels)

    phase_mod.run_protocol_batch = recording
    try:
        run_workload(workload, ExecMode.NS,
                     config=config, scale=SCALE)
    finally:
        phase_mod.run_protocol_batch = real
    return captured


def _time_engine(fn, repeats):
    fn()  # warm caches / imports
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def test_protocol_engine_speedup_16x16(bench_log):
    """The engine >= 4x the oracle on bfs_push's real episodes."""
    config = SystemConfig.paper_mesh(16)
    batches = _capture_episode_batches("bfs_push", config)
    assert batches, "the run never invoked the protocol engine"
    episodes = [p for batch in batches for p in batch]

    t_ref = _time_engine(
        lambda: [run_protocol_batch_reference(b) for b in batches],
        repeats=3)
    t_bat = _time_engine(
        lambda: [run_protocol_batch(b) for b in batches], repeats=3)
    speedup = t_ref / max(t_bat, 1e-12)

    bench_log("protocol_engine", workload="bfs_push", mode="ns",
              episodes=len(episodes), batches=len(batches),
              reference_seconds=round(t_ref, 6),
              batched_seconds=round(t_bat, 6),
              speedup=round(speedup, 2),
              **mesh_fields(config))
    print(f"\nprotocol engine on bfs_push@16x16: {len(episodes)} episodes"
          f", oracle {t_ref * 1e3:.2f} ms vs engine "
          f"{t_bat * 1e3:.2f} ms ({speedup:.1f}x)")
    assert speedup >= 4.0, (
        f"protocol engine only {speedup:.2f}x over the oracle")


@pytest.mark.parametrize("workload", SCALING_WORKLOADS)
def test_scaling_curves(workload, bench_log):
    """Speedup + NoC traffic vs tile count; the EXPERIMENTS.md rows."""
    for width in SCALING_WIDTHS:
        config = SystemConfig.paper_mesh(width)
        t0 = time.perf_counter()
        base = run_workload(workload, ExecMode.BASE, config=config,
                            scale=SCALE)
        ns = run_workload(workload, ExecMode.NS, config=config,
                          scale=SCALE)
        wall = time.perf_counter() - t0
        speedup = ns.speedup_over(base)
        traffic = (ns.traffic.total_byte_hops
                   / max(base.traffic.total_byte_hops, 1e-9))
        bench_log("scaling", workload=workload,
                  base_cycles=base.cycles, ns_cycles=ns.cycles,
                  speedup=round(speedup, 4),
                  traffic_vs_base=round(traffic, 4),
                  base_byte_hops=base.traffic.total_byte_hops,
                  ns_byte_hops=ns.traffic.total_byte_hops,
                  seconds=round(wall, 3),
                  **mesh_fields(config))
        print(f"\n{workload}@{width}x{width}: NS {speedup:.2f}x, "
              f"traffic {traffic:.2f}x base, {wall:.2f}s wall")
        assert ns.cycles > 0 and base.cycles > 0


def test_32x32_sweep_point_under_default_timeout(bench_log):
    """A 1024-tile sweep point completes under the default timeout."""
    point = SweepPoint("bfs_push", ExecMode.NS,
                       SystemConfig.paper_mesh(32), scale=SCALE)
    t0 = time.perf_counter()
    result = run_sweep([point], jobs=1, cache=None, timeout=None)[point]
    wall = time.perf_counter() - t0
    bench_log("sweep32", workload="bfs_push", mode="ns",
              cycles=result.cycles, seconds=round(wall, 3),
              **mesh_fields(point.config))
    print(f"\nbfs_push@32x32 sweep point: {wall:.2f}s")
    assert result.cycles > 0
