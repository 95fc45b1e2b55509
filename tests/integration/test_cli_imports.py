"""What each CLI command loads: module sets, pinned in fresh interpreters.

Start-up is most of a cached command's wall time, so the import layering
(DESIGN.md "Import layering") is part of the CLI's contract.  These tests
pin *which* modules a command loads, never how long that takes: each
command runs in a fresh interpreter that reports ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
SCALE = str(1.0 / 256.0)
#: The modules whose import registers the built-in kernels.
KERNELS = tuple(f"repro.workloads.{name}" for name in
                ("datamining", "graph", "micro", "pointer", "rodinia"))

_DRIVER = """
import json, sys
from repro.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
with open(sys.argv[2], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _loaded(argv, tmp_path, store):
    """Exit code and module names of ``repro argv`` in a fresh process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=str(store))
    out = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(argv),
                    str(out)], cwd=tmp_path, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    report = json.loads(out.read_text())
    return report["code"], set(report["modules"])


def _under(modules, *packages):
    return sorted(m for m in modules for p in packages
                  if m == p or m.startswith(p + "."))


@pytest.mark.parametrize("argv", [["list"], ["cache", "stats"]])
def test_list_and_cache_stats_load_no_numpy(tmp_path, argv):
    code, modules = _loaded(argv, tmp_path, tmp_path / "store")
    assert code == 0
    assert not _under(modules, "numpy", "asyncio")


def test_table5_loads_no_simulator(tmp_path):
    code, modules = _loaded(["table", "5"], tmp_path, tmp_path / "store")
    assert code == 0
    assert not _under(modules, "repro.sim", "repro.llc", *KERNELS)


def test_help_loads_no_asyncio(tmp_path):
    code, modules = _loaded(["--help"], tmp_path, tmp_path / "store")
    assert code == 0
    assert not _under(modules, "asyncio")


def test_cached_run_loads_only_what_its_result_needs(tmp_path):
    store = tmp_path / "store"
    argv = ["run", "histogram", "--scale", SCALE, "--cache"]
    code, cold = _loaded(argv, tmp_path, store)  # fills the store
    assert code == 0 and "repro.sim.phase" in cold
    code, modules = _loaded(argv, tmp_path, store)
    assert code == 0
    assert "repro.sim.results" in modules  # the cached result unpickled
    assert not _under(modules, "repro.sim.phase", "repro.llc", "asyncio",
                      *KERNELS)


@pytest.mark.parametrize("argv", [
    ["run", "histogram"],
    ["compare", "histogram"],
    ["fig", "9", "--workloads", "histogram", "srad"],
    ["fig", "16"],
], ids=["run", "compare", "fig9", "fig16"])
def test_cached_lookup_loads_no_numpy(tmp_path, argv):
    """A stored SimResult holds Python numbers and repro dataclasses, so
    answering from a warm store needs no numpy."""
    store = tmp_path / "store"
    argv = [*argv, "--scale", SCALE, "--cache"]
    code, cold = _loaded(argv, tmp_path, store)  # fills the store
    assert code == 0 and "numpy" in cold
    code, modules = _loaded(argv, tmp_path, store)
    assert code == 0
    assert not _under(modules, "numpy")


def _fresh(code, tmp_path, *args):
    """What ``code`` writes to its last argv path, run in a fresh
    interpreter (``sys.modules`` included)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC)
    out = tmp_path / "fresh.json"
    subprocess.run([sys.executable, "-c", code, *map(str, args), str(out)],
                   cwd=tmp_path, env=env, check=True)
    return json.loads(out.read_text())


def test_result_module_loads_no_numpy(tmp_path):
    report = _fresh("import json, sys\n"
                    "import repro.sim.results\n"
                    "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))",
                    tmp_path)
    assert "repro.sim.results" in report
    assert not _under(report, "numpy")


_UNPICKLE = """
import io, json, pickle, sys
from repro.eval.result_cache import ResultCache

root, key, out = sys.argv[1:]
named = set()


class Names(pickle.Unpickler):
    def find_class(self, module, name):
        named.add(module)
        return super().find_class(module, name)


cache = ResultCache(root)
result = cache.lookup(key)
Names(io.BytesIO(cache._payload(cache._path(key).read_bytes()))).load()
json.dump({"set": [result.faults is not None, result.lock_stats is not None,
                   result.trace is not None],
           "result": result.to_dict(), "named": sorted(named),
           "modules": sorted(sys.modules)}, open(out, "w"))
"""


def test_stored_faulted_traced_result_unpickles_without_numpy(tmp_path):
    """The richest stored result — faults, lock stats and trace metrics
    all set — names no numpy object and unpickles without numpy."""
    from repro.config import SystemConfig
    from repro.eval.result_cache import ResultCache
    from repro.fault import FaultPlan
    from repro.offload.modes import ExecMode
    from repro.sim.run import run_workload
    from repro.trace import Tracer
    from repro.workloads.build_cache import load_or_record

    trace = load_or_record("bfs_push", float(SCALE), 42,
                           SystemConfig.ooo8(), cache=None)
    result = run_workload(trace, ExecMode.NS,
                          fault_plan=FaultPlan.uniform(1000.0, seed=1),
                          tracer=Tracer())
    assert result.faults.total_injected > 0
    assert result.lock_stats is not None and result.trace is not None
    cache = ResultCache(tmp_path / "store")
    assert cache.store("faulted-traced-bfs_push", result)

    report = _fresh(_UNPICKLE, tmp_path, tmp_path / "store",
                    "faulted-traced-bfs_push")
    assert report["set"] == [True, True, True]
    assert report["result"] == json.loads(json.dumps(result.to_dict()))
    assert not _under(report["named"], "numpy")
    assert not _under(report["modules"], "numpy")
