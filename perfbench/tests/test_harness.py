"""The harness's own tests: ``python -m pytest perfbench/tests``.

A smoke run of every workload checks that each named metric is emitted
with its unit; the check tests show each output check failing on
tampered input.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, spans
from perfbench.ops import WORKLOADS, op_set
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_names_what_the_harness_emits():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == spans.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in listed}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == "0":
        assert values["ok_share"] == 1.0
        assert all(v > 0 for v in values.values())
    else:
        assert 0.0 < values["trace.coverage"] <= 1.0
        assert values["trace.overhead"] > 0
        trace_file = ROOT / ".perfbench_out" / f"{workload}-seed3.trace.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "op" for e in events)
    assert not (ROOT / ".perfbench_run").exists()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "cli", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_same_seed_same_ops_other_seed_other_inputs():
    for workload in WORKLOADS:
        assert op_set(workload, 5) == op_set(workload, 5)
        assert op_set(workload, 5) != op_set(workload, 6)


# ----------------------------------------------------------------------
# Each output check fails on tampered input.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def result_json():
    from repro.offload import ExecMode
    from repro.sim.run import run_workload
    result = run_workload("histogram", ExecMode.NS, scale=1.0 / 256.0,
                          seed=3, use_replay=False)
    return json.dumps(result.to_dict(), sort_keys=True)


def _tampered(canonical: str) -> str:
    d = json.loads(canonical)
    d["cycles"] += 1.0
    return json.dumps(d, sort_keys=True)


def test_sim_warm_check_catches_a_changed_field(result_json):
    assert checks.check_sim_warm([[result_json]], [result_json]) == [[True]]
    assert checks.check_sim_warm([[_tampered(result_json)]],
                                 [result_json]) == [[False]]


def test_faults_check_catches_divergence_and_bad_accounting(result_json):
    good = [10.0, 2.0, 12.0]
    assert checks.check_faults([[result_json], [result_json]],
                               [[good], [good]]) == [[True], [True]]
    assert checks.check_faults([[result_json], [_tampered(result_json)]],
                               [[good], [good]]) == [[True], [False]]
    assert checks.check_faults([[result_json]], [[[10.0, 1.0, 12.0]]]) \
        == [[False]]


def test_cli_check_catches_a_nonzero_exit_code():
    argv = ["run", "no_such_workload"]
    done = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1",
                               "PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    ops = [{"id": "run", "argv": argv}]
    ok = {"codes": [0], "stdout": [done.stdout]}
    bad = {"codes": [done.returncode], "stdout": [done.stdout]}
    assert checks.check_cli(ops, [ok, ok]) == [[True], [True]]
    assert checks.check_cli(ops, [ok, bad]) == [[True], [False]]


def test_cli_check_ignores_only_profile_timings():
    table = ("w/ns: 1 cyc\n\nstage    seconds calls share\n"
             "run.replay {t} 1 {s}%\n")
    a = table.format(t="0.0102", s="9.5")
    b = table.format(t="0.0081", s="10.1")
    assert checks.comparable_stdout(["profile", "w"], a) \
        == checks.comparable_stdout(["profile", "w"], b)
    assert checks.comparable_stdout(["run", "w"], a) \
        != checks.comparable_stdout(["run", "w"], b)
    c = a.replace("1 cyc", "2 cyc")
    assert checks.comparable_stdout(["profile", "w"], a) \
        != checks.comparable_stdout(["profile", "w"], c)


def test_sweep_cold_check_catches_a_quarantined_entry(tmp_path):
    from repro.config import SystemConfig
    from repro.eval.result_cache import ResultCache
    from repro.eval.sweep import SweepPoint, run_sweep
    from repro.offload import ExecMode
    from perfbench.worker import _canonical, read_back

    store = str(tmp_path / "store")
    points = [SweepPoint("histogram", mode, SystemConfig.ooo8(),
                         scale=1.0 / 256.0, seed=3)
              for mode in (ExecMode.BASE, ExecMode.NS)]
    got = run_sweep(points, jobs=1, cache=ResultCache(store))
    results = [[_canonical(got[p]) for p in points]]

    def round_of(readback, quarantined):
        return {"oks": [got.ok], "results": results, "readback": readback,
                "quarantined": quarantined, "write_errors": 0}

    readback, quarantined = read_back(store, [points])
    assert checks.check_sweep_cold([round_of(readback, quarantined)]) \
        == [[True]]

    entry = ResultCache(store)._path(points[1].key())
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    entry.write_bytes(bytes(blob))
    readback, quarantined = read_back(store, [points])
    assert quarantined == 1
    assert checks.check_sweep_cold([round_of(readback, quarantined)]) \
        == [[False]]


# ----------------------------------------------------------------------
def test_self_times_and_coverage():
    ms = 1_000_000
    recorded = [["op", 0, 10 * ms, -1, "a", {}],
                ["sim.run", 1 * ms, 9 * ms, 0, "a", {}],
                ["store.load", 2 * ms, 4 * ms, 1, "a",
                 {"kind": "replay", "bytes": 2_000_000}]]
    assert spans.self_times(recorded) == [2 * ms, 6 * ms, 2 * ms]
    assert spans.coverage(recorded) == pytest.approx(0.8)
    metrics = spans.layer_metrics(recorded)
    assert metrics["sim.run_ms"] == pytest.approx(6.0)
    assert metrics["store.replay.load_ms"] == pytest.approx(2.0)
    assert metrics["store.replay.loads"] == 1
    assert metrics["store.replay.read_mb"] == pytest.approx(2.0)
    assert set(metrics) | {"cli.python_ms", "cli.import_ms",
                           "cli.import_numpy_ms", "journal.mb",
                           "host.calib_ms", "trace.coverage",
                           "trace.overhead"} == set(spans.LAYER_UNITS)
