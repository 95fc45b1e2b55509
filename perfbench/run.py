#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the near-stream reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_warm --seed 1 --seconds 6 \\
        --trace 0

Workloads: ``cli``, ``sim_warm``, ``faults``, ``sweep_cold`` (see
README.md beside this file).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same op set with the layer wrappers of
``spans.py`` on alternate rounds and prints per-layer metrics instead,
writing the spans as Chrome trace JSON under ``.perfbench_out/``.
``--smoke`` swaps in a tiny op set (used by the harness's own tests).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every timed op runs in a
child interpreter (``worker.py``); this process only orchestrates,
checks outputs and summarises.  All stores, journals and bytecode live
in ``.perfbench_run/`` in the checkout, which the run deletes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy  # noqa: E402

from perfbench import checks, measure, spans  # noqa: E402
from perfbench.ops import SCALES, SMOKE_SCALE, WORKLOADS, fill_ops, \
    op_set  # noqa: E402

#: Whole-run budget: a run must end well inside 180 s.
BUDGET_S = 170.0
#: Independent set-ups per run, each into its own empty store; setup_s
#: is their median.  sweep_cold sets up once per round instead.
SETUPS = {"cli": 2, "sim_warm": 2, "faults": 3}
#: Calibration slices timed before each set-up.
SETUP_SLICES = 20
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "ok_share": "ratio", "peak_rss_mb": "MB",
              "store_mb": "MB"}


class RunError(RuntimeError):
    """The run cannot produce a result (child failed, budget exceeded)."""


class Harness:
    """Child processes, scratch directories and the run's time budget."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        base = {k: v for k, v in os.environ.items()
                if not k.startswith("REPRO_")
                and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                              "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP",
                              "PYTHONHASHSEED", "NUMPY_MADVISE_HUGEPAGE")}
        # numpy asks for transparent huge pages on large arrays; whether
        # the kernel can supply them (or stalls compacting memory to)
        # depends on other tenants, and moves both RSS and op times.
        base.update(PYTHONPYCACHEPREFIX=str(self.work / "pycache"),
                    PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0")
        #: Environment of ``python -m repro`` children.
        self.cli_env = dict(base, PYTHONPATH=str(ROOT / "src"))
        #: Environment of harness workers (they import ``perfbench`` too).
        self.worker_env = dict(base, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]))
        self._serial = 0
        self.clock = measure.HostClock()

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError(f"run exceeded its {BUDGET_S:.0f} s budget")
        return left

    def fresh_dir(self, name: str) -> str:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)

    def spawn(self, argv: List[str], env: Dict[str, str],
              capture: bool = False) -> Tuple[subprocess.CompletedProcess,
                                              float]:
        """Run a child to completion in its own session; returns the
        completed process and its launch time (monotonic)."""
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.work, env=env,
                                stdout=subprocess.PIPE if capture else None,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except BaseException as exc:
            # The child's session holds everything it started.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunError(f"{argv[2:4]} exceeded the run budget")
            raise
        return subprocess.CompletedProcess(argv, proc.returncode, out), \
            launched

    def worker(self, role: str, spec: Dict[str, Any]
               ) -> Tuple[Dict[str, Any], float]:
        """Run ``perfbench.worker ROLE`` on a spec; returns (result,
        launch time)."""
        self._serial += 1
        stem = self.work / f"{role}-{self._serial}"
        spec = dict(spec, out=f"{stem}.out.json")
        Path(f"{stem}.spec.json").write_text(json.dumps(spec))
        done, launched = self.spawn(
            [sys.executable, "-m", "perfbench.worker", role,
             f"{stem}.spec.json"], self.worker_env)
        if done.returncode != 0:
            raise RunError(f"worker {role} exited {done.returncode}")
        result = json.loads(Path(spec["out"]).read_text())
        os.unlink(spec["out"])
        return result, launched

    def setup(self, role: str, spec: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], Dict[str, float]]:
        """Run one set-up child; returns its result and the set-up as a
        round of one op (seconds to its first timed op, and the host's
        slice time just before it launched)."""
        host = self.clock.measure(SETUP_SLICES)
        out, launched = self.worker(role, spec)
        return out, {"times": [out["t_ready"] - launched], "host_ms": host}

    def prefill_bytecode(self) -> None:
        """Compile repro and everything it imports into the run's
        PYTHONPYCACHEPREFIX, as an installed package would be."""
        code = ("import compileall, importlib, pkgutil, sys\n"
                f"compileall.compile_dir({str(ROOT / 'src')!r}, quiet=1)\n"
                f"compileall.compile_dir({str(ROOT / 'perfbench')!r}, "
                "quiet=1)\n"
                "import repro\n"
                "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
                "    importlib.import_module(m.name)\n"
                "import perfbench.worker, perfbench.spans\n")
        done, _ = self.spawn([sys.executable, "-c", code], self.worker_env)
        if done.returncode != 0:
            raise RunError("cannot import repro from this checkout")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def tree_bytes(*paths: str) -> int:
    """Bytes in the given files and directory trees."""
    total = 0
    for path in paths:
        if os.path.isfile(path):
            total += os.path.getsize(path)
        for parent, _, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(parent, f))
                         for f in files)
    return total


# ----------------------------------------------------------------------
# Workload runners.  Each returns "setups" and "plain"/"traced" rounds
# ({"times": [op seconds], "host_ms": slice time}, traced rounds also
# "spans"), "flags" from its output check, "peak_rss_mb", "store_mb",
# "journal_mb" and "missing_hooks".
# ----------------------------------------------------------------------
def measure_sim(h: Harness, ops: List[Dict]) -> Dict[str, Any]:
    """sim_warm and faults: in-process ``run_workload`` on a warm store."""
    args, fill = h.args, fill_ops(ops)
    setups = []
    for i in range(SETUPS[args.workload] - 1):
        store = h.fresh_dir(f"setup{i}")
        _, setup = h.setup("sim", {"ops": ops, "fill": fill, "store": store,
                                   "setup_only": True})
        setups.append(setup)
        shutil.rmtree(store)
    store = h.fresh_dir("store")
    out, setup = h.setup("sim", {"ops": ops, "fill": fill, "store": store,
                                 "trace": args.trace,
                                 "seconds": args.seconds})
    setups.append(setup)
    rounds = out["rounds"] + out["traced"]
    results = [r["results"] for r in rounds]
    if args.workload == "faults":
        flags = checks.check_faults(results, [r["acct"] for r in rounds])
    else:
        ref, _ = h.worker("reference", {"ops": ops})
        flags = checks.check_sim_warm(results, ref["results"])
    return {"setups": setups, "plain": out["rounds"],
            "traced": out["traced"], "missing_hooks": out["missing_hooks"],
            "flags": flags, "peak_rss_mb": out["maxrss_mb"],
            "store_mb": tree_bytes(store) / 1e6, "journal_mb": 0.0}


def measure_sweep_cold(h: Harness, ops: List[Dict]) -> Dict[str, Any]:
    """sweep_cold: every round a fresh interpreter, store and journal."""
    args = h.args
    plain, traced, setups, sizes, journals = [], [], [], [], []
    start = time.monotonic()

    def one_round(trace: bool) -> Dict[str, Any]:
        store = h.fresh_dir("store")
        journal = str(h.work / "journal.jsonl")
        out, setup = h.setup("sweep_round", {
            "ops": ops, "store": store, "journal": journal,
            "trace": trace})
        if not trace:
            setups.append(setup)
            sizes.append(tree_bytes(store, journal))
        journals.append(tree_bytes(journal))
        shutil.rmtree(store)
        os.unlink(journal)
        return out

    while measure.more_rounds(len(plain), start, args.seconds):
        plain.append(one_round(False))
        if args.trace:
            traced.append(one_round(True))
    return {"setups": setups, "plain": plain, "traced": traced,
            "missing_hooks": traced[0]["missing_hooks"] if traced else [],
            "flags": checks.check_sweep_cold(plain + traced),
            "peak_rss_mb": max(r["maxrss_mb"] for r in plain),
            "store_mb": statistics.median(sizes) / 1e6,
            "journal_mb": statistics.median(journals) / 1e6}


def measure_cli(h: Harness, ops: List[Dict]) -> Dict[str, Any]:
    """cli: each op a fresh ``python -m repro`` on a store warmed in
    set-up by running every op once in one interpreter."""
    args = h.args
    setups = []
    for i in range(SETUPS["cli"]):
        store = h.fresh_dir(f"store{i}")
        out, setup = h.setup("cli_fill", {"ops": ops, "store": store})
        if any(out["codes"]):
            raise RunError(f"cli store fill failed: {out['codes']}")
        setups.append(setup)
        if i < SETUPS["cli"] - 1:
            shutil.rmtree(store)
    env = dict(h.cli_env, REPRO_CACHE_DIR=store)
    out, _ = h.worker("cli_rounds", {
        "ops": ops, "env": env, "work": str(h.work),
        "worker_pythonpath": h.worker_env["PYTHONPATH"],
        "seconds": args.seconds, "trace": args.trace,
        "op_timeout": 120})
    rounds = out["rounds"] + out["traced"]
    return {"setups": setups, "plain": out["rounds"],
            "traced": out["traced"],
            "missing_hooks": out["missing_hooks"],
            "flags": checks.check_cli(ops, rounds),
            "peak_rss_mb": out["maxrss_mb"],
            "store_mb": tree_bytes(store) / 1e6, "journal_mb": 0.0}


RUNNERS = {"cli": measure_cli, "sim_warm": measure_sim,
           "faults": measure_sim, "sweep_cold": measure_sweep_cold}


# ----------------------------------------------------------------------
def cli_probes(h: Harness, runs: int = 3) -> Dict[str, float]:
    """Fresh-interpreter floors: bare start, and imports (best of runs)."""
    python = []
    for _ in range(runs):
        begin = time.perf_counter()
        h.spawn([sys.executable, "-c", "pass"], h.cli_env)
        python.append((time.perf_counter() - begin) * 1e3)
    imports = []
    for _ in range(runs):
        done, _ = h.spawn([sys.executable, "-m", "perfbench.worker",
                           "imports"], h.worker_env, capture=True)
        imports.append(json.loads(done.stdout))
    return {"cli.python_ms": min(python),
            "cli.import_ms": min(i["import_ms"] for i in imports),
            "cli.import_numpy_ms": min(i["import_numpy_ms"]
                                       for i in imports)}


def layer_report(h: Harness, run: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the fastest traced round, plus probes."""
    args = h.args
    traced = run["traced"]
    totals = [sum(r) for r in measure.scaled(traced)]
    best = traced[totals.index(min(totals))]
    chosen = best["spans"]
    metrics = spans.layer_metrics(chosen)
    metrics.update(cli_probes(h))
    metrics["journal.mb"] = run["journal_mb"]
    metrics["host.calib_ms"] = best["host_ms"]
    metrics["trace.coverage"] = spans.coverage(chosen)
    metrics["trace.overhead"] = (
        measure.summarize(measure.fastest(measure.scaled(traced)))
        ["ops_per_s"]
        / measure.summarize(measure.fastest(measure.scaled(run["plain"])))
        ["ops_per_s"])

    print(spans.format_breakdown(args.workload, chosen))
    if run["missing_hooks"]:
        print(f"MISSING layer hooks (renamed or removed): "
              f"{', '.join(run['missing_hooks'])}")
    print(f"trace overhead: traced ops/s = {metrics['trace.overhead']:.3f}"
          f" x untraced ops/s")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    n = spans.chrome_trace([r["spans"] for r in traced], str(path))
    print(f"spans: {n} trace events -> {path.relative_to(ROOT)}")
    return {name: metrics[name] for name in spans.LAYER_UNITS}


def end_to_end(run: Dict[str, Any], ok_share: float) -> Dict[str, float]:
    """The end-to-end metrics at the reference host speed."""
    summary = measure.summarize(measure.fastest(measure.scaled(run["plain"])))
    setup = [t[0] for t in measure.scaled(run["setups"])]
    raw = measure.summarize(measure.fastest(r["times"]
                                            for r in run["plain"]))
    hosts = [r["host_ms"] for r in run["plain"]]
    print(f"unscaled: ops_per_s {raw['ops_per_s']:.3f}, op_p50_ms "
          f"{raw['op_p50_ms']:.3f}, op_p90_ms {raw['op_p90_ms']:.3f}, "
          f"setup_s {[round(r['times'][0], 3) for r in run['setups']]}; "
          f"host slice ms per round {[round(x, 3) for x in hosts]} "
          f"(reference {measure.REF_HOST_MS})")
    return dict(summary, setup_s=statistics.median(setup),
                ok_share=ok_share, peak_rss_mb=run["peak_rss_mb"],
                store_mb=run["store_mb"])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op set, for the harness's own tests")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2

    # A SIGTERM must still stop and reap every child (see Harness.spawn).
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    h = Harness(args)
    try:
        h.prefill_bytecode()
        calib_ms = h.clock.measure(4 * SETUP_SLICES)
        environment = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "host.calib_ms": round(calib_ms, 3),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scales": {"smoke": SMOKE_SCALE} if args.smoke
            else {args.workload: SCALES[args.workload]}}
        print("environment: " + json.dumps(environment), flush=True)
        ops = op_set(args.workload, args.seed, args.smoke)
        run = RUNNERS[args.workload](h, ops)
        attempted, failed = checks.tally(run["flags"])
        bad = sorted({op["id"] for row in run["flags"]
                      for op, ok in zip(ops, row) if not ok})
        if bad:
            print(f"perfbench: output check failed for {bad}",
                  file=sys.stderr)
        if args.trace:
            metrics = layer_report(h, run)
            units = spans.LAYER_UNITS
        else:
            metrics = end_to_end(run, (attempted - failed) / attempted)
            units = END_TO_END
        print(f"{args.workload}: {len(ops)} ops x {len(run['plain'])} "
              f"rounds, {len(run['setups'])} set-ups")
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        h.close()
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
