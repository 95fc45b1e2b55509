"""Ablations beyond the paper's figures (DESIGN.md §5).

The design choices §IV calls out get their own sweeps:

* range-sync granularity R (iterations per range message);
* credit chunk size (flow-control coarseness — "all control messages
  designed to be coarse-grained ... key to retaining benefits");
* the baseline prefetcher (how strong is the baseline we beat?);
* mesh link width (is the baseline's NoC the real constraint?).
"""

from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.eval import format_table, geomean
from repro.offload import ExecMode
from repro.sim import run_workload

SUBSET = ("histogram", "bfs_push", "srad")


def geomean_speedup(config, mode, scale, names=SUBSET):
    speeds = []
    for name in names:
        base = run_workload(name, ExecMode.BASE, config=config, scale=scale)
        r = run_workload(name, mode, config=config, scale=scale)
        speeds.append(r.speedup_over(base))
    return geomean(speeds)


def test_range_sync_interval(sweep_config, benchmark):
    """Coarser ranges mean fewer messages but coarser alias checks; the
    default R = 8 should sit on the flat part of the curve."""
    def sweep():
        out = {}
        for interval in (1, 4, 8, 32):
            cfg = SystemConfig.ooo8().with_se(range_sync_interval=interval)
            out[interval] = geomean_speedup(cfg, ExecMode.NS,
                                            sweep_config.scale)
        return out
    result = benchmark(sweep)
    rows = [[f"R={k}", v] for k, v in result.items()]
    print("\n" + format_table(["interval", "NS speedup"], rows,
                              "Ablation: range-sync granularity"))
    # Fine-grain ranges (R=1) cost extra traffic; R >= 8 is flat.
    assert result[1] <= result[8] + 0.02
    assert abs(result[8] - result[32]) / result[8] < 0.1


def test_credit_chunk_size(sweep_config, benchmark):
    """Too-small credits serialize the protocol; too-large credits are
    harmless for throughput (buffer-bounded)."""
    def sweep():
        out = {}
        for chunk in (8, 64, 256):
            cfg = SystemConfig.ooo8().with_se(credit_chunk=chunk)
            out[chunk] = geomean_speedup(cfg, ExecMode.NS,
                                         sweep_config.scale)
        return out
    result = benchmark(sweep)
    rows = [[f"{k} iters", v] for k, v in result.items()]
    print("\n" + format_table(["credit chunk", "NS speedup"], rows,
                              "Ablation: flow-control coarseness"))
    assert result[64] >= result[8] * 0.9


def test_baseline_prefetcher_strength(sweep_config, benchmark):
    """NS's win must survive regardless of the baseline prefetcher.

    In a communication-bound baseline, prefetching trades latency hiding
    against over-fetch traffic and is nearly performance-neutral — the
    point of the ablation is that NS's advantage does not depend on a
    weak baseline.
    """
    def sweep():
        on = SystemConfig.ooo8()
        off = replace(on, prefetcher=replace(on.prefetcher, enabled=False))
        out = {}
        for label, cfg in (("prefetcher on", on), ("prefetcher off", off)):
            base = run_workload("histogram", ExecMode.BASE, config=cfg,
                                scale=sweep_config.scale)
            ns = run_workload("histogram", ExecMode.NS, config=cfg,
                              scale=sweep_config.scale)
            out[label] = (base.cycles, ns.speedup_over(base))
        return out
    result = benchmark(sweep)
    rows = [[k, v[0], v[1]] for k, v in result.items()]
    print("\n" + format_table(["baseline", "base cycles", "NS speedup"],
                              rows, "Ablation: baseline prefetcher"))
    on_base, on_speedup = result["prefetcher on"]
    off_base, off_speedup = result["prefetcher off"]
    # The prefetcher is not the main lever either way...
    assert abs(on_base - off_base) / off_base < 0.25
    # ...and NS clearly beats both baselines.
    assert on_speedup > 1.3 and off_speedup > 1.3


def test_noc_link_width(sweep_config, benchmark):
    """Doubling link bandwidth helps the traffic-bound baseline more than
    NS — evidence the baseline is communication-limited."""
    def sweep():
        out = {}
        for bits in (128, 256, 512):
            noc = replace(SystemConfig.ooo8().noc, link_bits=bits)
            cfg = replace(SystemConfig.ooo8(), noc=noc)
            base = run_workload("bfs_push", ExecMode.BASE, config=cfg,
                                scale=sweep_config.scale)
            ns = run_workload("bfs_push", ExecMode.NS, config=cfg,
                              scale=sweep_config.scale)
            out[bits] = (base.cycles, ns.cycles)
        return out
    result = benchmark(sweep)
    rows = [[f"{k}-bit", v[0], v[1], v[0] / v[1]]
            for k, v in result.items()]
    print("\n" + format_table(
        ["links", "base cycles", "NS cycles", "NS speedup"], rows,
        "Ablation: mesh link width"))
    base_gain = result[128][0] / result[512][0]
    ns_gain = result[128][1] / result[512][1]
    assert base_gain > ns_gain, \
        "extra NoC bandwidth should matter more to the baseline"
