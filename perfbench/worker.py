"""Child-interpreter side of the harness: ``python -m perfbench.worker``.

Every timed op runs in a child interpreter, never in ``run.py``:

* ``sim SPEC``         fill a store, then time ``run_workload`` rounds
                       (sim_warm, faults); ``setup_only`` stops after
                       the fill.
* ``sweep_round SPEC`` one sweep_cold round in a fresh interpreter with
                       an empty store and journal.
* ``reference SPEC``   the store-free path, ``run_sweep(points, jobs=1,
                       cache=None)``, that sim_warm's check compares to.
* ``cli_fill SPEC``    run every cli op once in-process to fill a store.
* ``cli_rounds SPEC``  time the cli ops, each a fresh ``python -m repro``.
* ``cli_op OUT ARGV``  one traced cli command: wrappers installed before
                       ``repro.cli.main(argv)``, spans written to OUT.
* ``imports``          fresh-interpreter import times of numpy and
                       repro.cli.

A SPEC is a JSON file; the result is written as JSON to ``spec["out"]``.
Times are ``time.monotonic()``/``perf_counter`` readings, which share
CLOCK_MONOTONIC with the parent on Linux, so the parent can subtract
its launch time from a child's ready time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List

from perfbench.measure import HostClock, more_rounds


def _maxrss_mb(who: int = resource.RUSAGE_SELF,
               clock: HostClock = None) -> float:
    """Peak RSS in MB, less the calibration buffer when this process
    holds one (it is resident throughout, so the peak carries it
    exactly once)."""
    rss = resource.getrusage(who).ru_maxrss / 1024.0
    return rss - clock.resident_mb if clock is not None else rss


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _config(mesh: int, knob: Dict[str, Any] = None):
    from repro.config import SystemConfig
    config = SystemConfig.paper_mesh(mesh)
    return config.with_se(**knob) if knob else config


def _alternate(run_round, seconds: float, trace: bool):
    """Untraced rounds, each followed by a traced one when tracing, so a
    host phase change hits both kinds alike."""
    plain, traced = [], []
    start = time.monotonic()
    while more_rounds(len(plain), start, seconds):
        plain.append(run_round(False))
        if trace:
            traced.append(run_round(True))
    return plain, traced


# ----------------------------------------------------------------------
def sim(spec: Dict[str, Any]) -> Dict[str, Any]:
    """sim_warm / faults: fill the store, then round-robin timed rounds."""
    os.environ["REPRO_CACHE_DIR"] = spec["store"]
    from repro.fault.plan import FaultPlan
    from repro.offload import ExecMode
    import repro.sim.run as sim_run

    def call(op):
        plan = (FaultPlan.uniform(op["fault_rate"], seed=op["seed"])
                if op.get("fault_rate") else None)
        return sim_run.run_workload(op["workload"], ExecMode(op["mode"]),
                                    config=_config(op["mesh"]),
                                    scale=op["scale"], seed=op["seed"],
                                    fault_plan=plan)

    # The clock's buffer is allocated before the fill, so the peak RSS
    # carries it whether the peak falls in the fill or in the rounds.
    clock = None if spec.get("setup_only") else HostClock()
    for op in spec["fill"]:
        call(op)
    out: Dict[str, Any] = {"t_ready": time.monotonic()}
    if clock is None:
        return out

    ops = spec["ops"]
    recorder = _recorder(spec)

    def run_round(traced: bool):
        times, results, acct = [], [], []
        if traced:
            recorder.install()
        try:
            for op in ops:
                clock.tick()
                with _op_span(recorder if traced else None, op["id"]):
                    start = time.perf_counter()
                    result = call(op)
                    times.append(time.perf_counter() - start)
                results.append(_canonical(result))
                f = result.faults
                acct.append(None if f is None else
                            [f.committed_iterations,
                             f.reexecuted_iterations,
                             f.offloaded_iterations])
        finally:
            if traced:
                recorder.uninstall()
        return {"times": times, "host_ms": clock.round_ms(),
                "results": results, "acct": acct,
                "spans": recorder.take() if traced else None}

    plain, traced = _alternate(run_round, spec["seconds"], spec["trace"])
    out["maxrss_mb"] = _maxrss_mb(clock=clock)
    out["rounds"] = plain
    out["traced"] = traced
    out["missing_hooks"] = recorder.missing if recorder else []
    return out


def sweep_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep_cold round: one ``run_sweep`` call per functional group
    into an empty store and journal, then the store read back."""
    from repro.eval.result_cache import ResultCache
    from repro.offload import ExecMode
    import repro.eval.sweep as sweep

    groups = [[sweep.SweepPoint(op["workload"], ExecMode(mode),
                                _config(8, op["knob"]), scale=op["scale"],
                                seed=op["seed"]) for mode in op["modes"]]
              for op in spec["ops"]]
    cache = ResultCache(spec["store"])
    clock = HostClock()
    recorder = _recorder(spec)
    if spec["trace"]:
        recorder.install()
    out: Dict[str, Any] = {"t_ready": time.monotonic()}
    times, oks, results = [], [], []
    for op, points in zip(spec["ops"], groups):
        clock.tick()
        with _op_span(recorder if spec["trace"] else None, op["id"]):
            start = time.perf_counter()
            got = sweep.run_sweep(points, jobs=1, cache=cache,
                                  journal=spec["journal"])
            times.append(time.perf_counter() - start)
        oks.append(got.ok)
        results.append([_canonical(got[p]) if p in got else None
                        for p in points])
    if spec["trace"]:
        recorder.uninstall()
    out["maxrss_mb"] = _maxrss_mb(clock=clock)

    readback, quarantined = read_back(spec["store"], groups)
    out.update(times=times, host_ms=clock.round_ms(), oks=oks,
               results=results, readback=readback,
               quarantined=cache.quarantined + quarantined,
               write_errors=cache.write_errors,
               spans=recorder.take() if spec["trace"] else None,
               missing_hooks=recorder.missing if recorder else [])
    return out


def read_back(store: str, groups) -> tuple:
    """Every point's stored result through a fresh store handle, and the
    number of entries the store has quarantined (during the read or
    before it)."""
    from repro.eval.result_cache import ResultCache

    fresh = ResultCache(store)
    values = [[fresh.lookup(p.key()) for p in points] for points in groups]
    canonical = [[None if v is None else _canonical(v) for v in row]
                 for row in values]
    # An entry quarantined now is counted by the handle and sits in the
    # quarantine directory; one quarantined during the sweep sits there.
    return canonical, max(fresh.quarantined,
                          fresh.disk_stats()["quarantined_entries"])


def reference(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The store-free path for sim ops: ``run_sweep(..., cache=None)``."""
    from repro.eval.sweep import SweepPoint, run_sweep
    from repro.offload import ExecMode

    points = [SweepPoint(op["workload"], ExecMode(op["mode"]),
                         _config(op["mesh"]), scale=op["scale"],
                         seed=op["seed"]) for op in spec["ops"]]
    got = run_sweep(points, jobs=1, cache=None)
    return {"results": [_canonical(got[p]) if p in got else None
                        for p in points]}


def cli_fill(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run each cli op once in this interpreter, filling the store."""
    os.environ["REPRO_CACHE_DIR"] = spec["store"]
    import repro.cli

    codes = []
    for op in spec["ops"]:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(repro.cli.main(op["argv"]))
    return {"t_ready": time.monotonic(), "codes": codes}


def cli_rounds(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Time every cli op as a fresh ``python -m repro`` process."""
    ops, env = spec["ops"], spec["env"]
    clock = HostClock()
    traced_env = dict(env, PYTHONPATH=spec["worker_pythonpath"])

    def run_round(traced: bool):
        times, codes, outs, spans = [], [], [], []
        for i, op in enumerate(ops):
            clock.tick()
            if traced:
                spans_out = os.path.join(spec["work"], f"op{i}.spans")
                argv = [sys.executable, "-m", "perfbench.worker", "cli_op",
                        spans_out, *op["argv"]]
            else:
                argv = [sys.executable, "-m", "repro", *op["argv"]]
            begin = time.perf_counter_ns()
            done = subprocess.run(argv, cwd=spec["work"],
                                  env=traced_env if traced else env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL,
                                  timeout=spec["op_timeout"])
            end = time.perf_counter_ns()
            times.append((end - begin) / 1e9)
            codes.append(done.returncode)
            outs.append(done.stdout.decode("utf-8", "replace"))
            if traced:
                with open(spans_out) as fh:
                    child = json.load(fh)
                os.unlink(spans_out)
                _graft_op(spans, ["op", begin, end, -1, op["id"], {}],
                          child["spans"])
                missing.update(child["missing_hooks"])
        return {"times": times, "host_ms": clock.round_ms(), "codes": codes,
                "stdout": outs, "spans": spans if traced else None}

    missing = set()
    plain, traced = _alternate(run_round, spec["seconds"], spec["trace"])
    return {"rounds": plain, "traced": traced,
            "missing_hooks": sorted(missing),
            "maxrss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN)}


def cli_op(spans_out: str, argv: List[str]) -> int:
    """One traced cli command in this fresh interpreter."""
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    with recorder.span("cli.import"):
        import repro.cli
        recorder.install()
    code = 1
    try:
        with recorder.span("cli.handler"):
            code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump({"spans": recorder.spans,
                       "missing_hooks": recorder.missing}, fh)
    return code


def imports() -> Dict[str, float]:
    """Import times in this fresh interpreter (numpy first, then the
    rest of ``repro.cli``)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    mid = time.perf_counter()
    import repro.cli  # noqa: F401
    end = time.perf_counter()
    return {"import_numpy_ms": (mid - start) * 1e3,
            "import_ms": (end - start) * 1e3}


# ----------------------------------------------------------------------
def _recorder(spec: Dict[str, Any]):
    if not spec.get("trace"):
        return None
    from perfbench.spans import SpanRecorder
    return SpanRecorder()


@contextlib.contextmanager
def _op_span(recorder, op_id: str):
    if recorder is None:
        yield
        return
    recorder.op = op_id
    with recorder.span("op"):
        yield


def _graft_op(spans: List[list], op_span: list, child: List[list]) -> None:
    """Append a traced command's op span, with the spans its interpreter
    recorded hung beneath it."""
    from perfbench.spans import graft
    base = len(spans)
    spans.append(op_span)
    for s in child:
        s[4] = op_span[4]
    graft(spans, child, base)


def main(argv: List[str]) -> int:
    role = argv[0]
    if role == "cli_op":
        return cli_op(argv[1], argv[2:])
    if role == "imports":
        print(json.dumps(imports()))
        return 0
    with open(argv[1]) as fh:
        spec = json.load(fh)
    handler = {"sim": sim, "sweep_round": sweep_round,
               "reference": reference, "cli_fill": cli_fill,
               "cli_rounds": cli_rounds}[role]
    result = handler(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
