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
