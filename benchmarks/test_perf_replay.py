"""Trace-replay fast path: cold (build + record) vs warm (replay) runs.

Times three variants of the same (workload, mode, config, scale, seed)
run — live with replay off, cold (records the functional trace into a
fresh cache), and warm (replays it) — for ``bfs_push`` and ``hash_join``,
the two workloads whose functional pass (Kronecker generation / hash
build) dominates their cold run time.  Prints the timings and asserts
replay's contract: bit-identical results and a profile that shows no
build or compile work.  The throughput bench forgets the trace its
process last loaded before every timed call, so it keeps timing the
store load and decode; the reuse of that trace
(:func:`~repro.workloads.build_cache.load_or_record`) is printed beside.
"""

import os
import time

import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads import build_cache

SCALE = float(os.environ.get("REPRO_SCALE") or 1.0 / 64.0)
WORKLOADS = ("bfs_push", "hash_join")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    old = result_cache._default_cache
    result_cache.set_default_cache(tmp_path)
    yield
    result_cache._default_cache = old


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_vs_cold(workload, fresh_cache):
    config = SystemConfig.ooo8()

    t0 = time.perf_counter()
    live = run_workload(workload, ExecMode.NS, config=config, scale=SCALE,
                        use_replay=False)
    t_live = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = run_workload(workload, ExecMode.NS, config=config, scale=SCALE)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = run_workload(workload, ExecMode.NS, config=config, scale=SCALE)
    t_warm = time.perf_counter() - t0

    # Contract first: bit-identical results, and the warm run really did
    # replay (no functional work in its profile).
    assert cold.to_dict() == live.to_dict()
    assert warm.to_dict() == live.to_dict()
    assert "run.record" in cold.profile
    assert "run.replay" in warm.profile
    assert "run.build" not in warm.profile
    assert "run.compile" not in warm.profile

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    print(f"\n{workload}: live {t_live:.3f}s, cold {t_cold:.3f}s, "
          f"warm {t_warm:.3f}s ({speedup:.1f}x cold->warm)")
    # Lax floor: replay must not be slower than the recording run.  The
    # real perf claims live in EXPERIMENTS.md.
    assert t_warm <= t_cold


def test_replay_throughput(benchmark, fresh_cache, monkeypatch):
    """Steady-state replay rate for bfs_push (the warm sweep unit), each
    replay loading its trace from the store."""
    config = SystemConfig.ooo8()
    run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE)

    def reuse():
        return run_workload("bfs_push", ExecMode.NS, config=config,
                            scale=SCALE)

    def run():
        monkeypatch.setattr(build_cache, "_last_loaded", None)
        return reuse()

    result = benchmark(run)
    assert "run.replay" in result.profile
    if benchmark.stats is not None:  # absent under --benchmark-disable
        t_reuse = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reuse()
            t_reuse = min(t_reuse, time.perf_counter() - t0)
        mean = benchmark.stats.stats.mean
        benchmark.extra_info["seconds_per_replay"] = round(mean, 4)
        print(f"\nbfs_push replay: {mean:.3f}s/run "
              f"({1.0 / mean:.2f} points/s), reusing the loaded trace "
              f"{t_reuse:.3f}s/run")
