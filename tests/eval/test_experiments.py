"""Experiment drivers on a reduced configuration."""

import pytest

from repro.eval import (
    EvalConfig,
    fig1a_stream_op_breakdown,
    fig1b_ideal_traffic,
    fig9_overall_speedup,
    fig11_offload_fractions,
    fig12_traffic_breakdown,
    fig15_affine_range_generation,
    run_all_modes,
)
from repro.offload import ExecMode

CFG = EvalConfig(scale=1.0 / 256.0,
                 workloads=("histogram", "bfs_push", "srad"))


def test_run_all_modes_is_memoized():
    first = run_all_modes(CFG)
    second = run_all_modes(CFG)
    assert first is second
    assert set(first) == {"histogram", "bfs_push", "srad"}
    assert set(first["histogram"]) == set(
        (ExecMode.BASE, ExecMode.INST, ExecMode.SINGLE, ExecMode.NS_CORE,
         ExecMode.NS_NO_COMP, ExecMode.NS, ExecMode.NS_NO_SYNC,
         ExecMode.NS_DECOUPLE))


def test_fig1a_fractions_are_probabilities():
    result = fig1a_stream_op_breakdown(CFG)
    for name, row in result.items():
        parts = (row["load"] + row["store"] + row["atomic"]
                 + row["update"] + row["reduce"])
        assert parts == pytest.approx(row["stream_total"], abs=1e-6)
        assert 0 < row["stream_total"] < 1


def test_fig9_includes_geomean_and_base_unity():
    result = fig9_overall_speedup(CFG)
    assert "geomean" in result
    for name in CFG.workload_names():
        assert result[name]["base"] == 1.0
        assert result[name]["ns"] > 0


def test_fig11_offloaded_bounded_by_associated():
    result = fig11_offload_fractions(CFG)
    for name in CFG.workload_names():
        row = result[name]
        assert row["offloaded"] <= row["stream_associated"] + 1e-9


def test_fig12_base_normalizes_to_one():
    result = fig12_traffic_breakdown(CFG)
    for name in CFG.workload_names():
        assert result[name]["base"]["total"] == pytest.approx(1.0)
        assert result[name]["base"]["offload"] == 0.0
        parts = sum(v for k, v in result[name]["ns"].items()
                    if k != "total")
        assert parts == pytest.approx(result[name]["ns"]["total"],
                                      rel=1e-6)


def test_fig15_only_affine_workloads():
    result = fig15_affine_range_generation(CFG, workloads=("histogram",))
    assert set(result) == {"histogram"}
    row = result["histogram"]
    assert row["speedup_ratio"] > 0
    assert row["traffic_ratio"] > 0


def test_eval_config_defaults_to_all_workloads():
    assert len(EvalConfig().workload_names()) == 14
    assert EvalConfig().system().num_cores == 64


def test_fig1b_on_a_warm_store_builds_nothing(tmp_path, monkeypatch):
    """Fig 1b measures the stored functional traces: once a pass has
    stored them, the next builds no workload and gives the same rows."""
    from repro.eval import result_cache
    from repro.workloads.base import Workload

    monkeypatch.setattr(result_cache, "_default_cache",
                        result_cache.ResultCache(tmp_path))
    cfg = EvalConfig(scale=1.0 / 256.0, workloads=("histogram", "bfs_push"),
                     use_cache=True)
    cold = fig1b_ideal_traffic(cfg)

    builds = []
    build = Workload.build

    def counting(self, space):
        builds.append(self.name)
        return build(self, space)

    monkeypatch.setattr(Workload, "build", counting)
    assert fig1b_ideal_traffic(cfg) == cold
    assert builds == []
