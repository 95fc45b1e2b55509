"""Command-line interface: run workloads, sweeps, and paper figures.

Usage::

    python -m repro run bfs_push --mode ns --scale 0.015625
    python -m repro compare bfs_push                # all modes side by side
    python -m repro sweep bfs_push srad --journal j.jsonl   # durable sweep
    python -m repro sweep bfs_push srad --journal j.jsonl --resume
    python -m repro fig 9 --jobs 0 --cache          # parallel + cached
    python -m repro table 1                         # print a paper table
    python -m repro faults bfs_push                 # recovery-cost curve
    python -m repro trace bfs_push --out trace.json # protocol event trace
    python -m repro cache stats                     # persistent-cache usage
    python -m repro cache clear --quarantine        # drop quarantined only
    python -m repro list                            # workloads and modes

Each command takes only the flags its handler reads.  ``--jobs N``
(compare, sweep, fig, report) fans simulations over N worker processes
(0 = all cores); results are bit-identical to serial runs.  ``--cache``
(those commands and run) persists results under ``.repro_cache/`` (or
``--cache-dir``/``$REPRO_CACHE_DIR``) so reruns are near-instant;
``repro cache clear`` invalidates it.  ``--timeout SEC`` (run, compare,
sweep) bounds each worker simulation; it must be positive — leave it off
(or set ``$REPRO_SWEEP_TIMEOUT``, where ``0`` means none) to run
unbounded.  ``--scale`` must be a fraction in (0, 1].

``repro sweep`` is the durable workhorse for unattended runs (README
"Unattended runs", DESIGN.md §5g): ``--journal FILE`` appends every
completed/failed point as it lands, its result in the ``--cache`` store
or, without one, in ``FILE.store/``; ``--resume`` restarts a killed
sweep computing only the points that store lacks (bit-identical results),
``--watchdog SEC`` kills and retries a group whose worker stops
heartbeating, and a failure summary table prints after every run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# Only numpy-free leaf modules load here; each handler imports what it
# runs, so ``repro list`` loads no simulator and a cached ``repro run``
# only what unpickling its result needs (DESIGN.md §5i).
from repro.config.system import SystemConfig
from repro.eval.journal import SweepJournal
from repro.eval.report import format_table
from repro.eval.result_cache import ResultCache, get_default_cache, \
    set_default_cache
from repro.eval.sweep import SweepFailed, SweepPoint, SweepResults, \
    run_sweep
from repro.offload.modes import ExecMode
from repro.workloads import WORKLOAD_NAMES

MODES = {mode.value: mode for mode in ExecMode}


def _positive_seconds(text: str) -> float:
    """argparse type for --timeout: strictly positive seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid timeout {text!r} (want seconds, e.g. 120)")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"timeout must be positive (got {text}); omit the flag to "
            f"run without a timeout")
    return value


def _scale_fraction(text: str) -> float:
    """argparse type for --scale: a finite fraction in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid scale {text!r} (want a fraction in (0, 1], "
            f"e.g. 0.015625)")
    if not 0 < value <= 1:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1] (got {text})")
    return value


def _add_common(parser: argparse.ArgumentParser, jobs: bool = False,
                timeout: bool = False, cache: bool = False) -> None:
    """--scale and --seed, plus the sweep flags the handler reads."""
    parser.add_argument("--scale", type=_scale_fraction, default=1.0 / 64.0,
                        help="input shrink factor vs the paper's sizes, "
                             "in (0, 1]")
    parser.add_argument("--seed", type=int, default=42)
    if jobs:
        parser.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes for sweeps (0 = all "
                                 "cores; default $REPRO_JOBS or serial)")
    if timeout:
        parser.add_argument("--timeout", type=_positive_seconds,
                            default=None, metavar="SEC",
                            help="per-simulation timeout in seconds (> 0); "
                                 "omit for no timeout (default "
                                 "$REPRO_SWEEP_TIMEOUT, where 0 means "
                                 "none)")
    if cache:
        parser.add_argument("--cache", action="store_true",
                            help="reuse/persist results under "
                                 ".repro_cache/")
        parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="cache directory (implies --cache)")


def _check_workload(name: str) -> bool:
    """Validate a workload name, printing the did-you-mean hint if bad.

    The paper's workloads pass on the static name table; any other name
    asks the registry, which knows the micro-kernels and registered
    extras.  Bad names exit with a short stderr message (and difflib
    suggestion from the registry) instead of an argparse usage dump or
    a traceback.
    """
    if name in WORKLOAD_NAMES:
        return True
    from repro.workloads.base import make_workload
    try:
        make_workload(name)
        return True
    except KeyError as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return False


def _sweep_cache(args) -> Optional[ResultCache]:
    """The persistent cache selected by --cache/--cache-dir, if any."""
    if getattr(args, "cache_dir", None):
        return set_default_cache(args.cache_dir)
    if getattr(args, "cache", False):
        return get_default_cache()
    return None


def _print_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is None:
        return
    s = cache.stats()
    print(f"[cache] {s['hits']} hits, {s['misses']} misses, "
          f"{s['bytes_read']} B read, {s['bytes_written']} B written "
          f"({cache.root})")


def _print_failures(results: SweepResults) -> None:
    """Post-run failure summary: one table row per failed point.

    Printed to stderr so ``--json`` pipelines stay clean; the truncated
    tracebacks live in the journal (and on ``FailedPoint.traceback``),
    not here — the table is for triage, the journal for post-mortem.
    """
    if results.ok:
        return
    rows = [[f.point.workload, f.point.mode.value, f.stage, f.error,
             f.attempts,
             (f.message[:60] + "…") if len(f.message) > 60 else f.message]
            for f in results.failures]
    print(format_table(
        ["workload", "mode", "stage", "error", "attempts", "message"],
        rows, title=f"{len(results.failures)} failed point(s)"),
        file=sys.stderr)


def cmd_sweep(args) -> int:
    """Durable multi-workload sweep: journal, resume, watchdog.

    Exit codes: 0 all points completed, 1 some failed, 2 bad usage;
    a SIGINT/SIGTERM mid-sweep exits 130/143 via
    :class:`~repro.eval.sweep.SweepInterrupted` with the journal flushed.
    """
    for name in args.workloads:
        if not _check_workload(name):
            return 2
    if args.resume and not args.journal:
        print("repro: --resume requires --journal FILE", file=sys.stderr)
        return 2
    if args.journal and os.path.isdir(args.journal):
        print(f"repro: --journal {args.journal} is a directory; "
              f"name a file", file=sys.stderr)
        return 2
    config = _mesh_config(args)
    if config is None:
        return 2
    cache = _sweep_cache(args)
    modes = [MODES[m] for m in args.modes]
    points = [SweepPoint(w, m, config, scale=args.scale, seed=args.seed)
              for w in args.workloads for m in modes]
    results = run_sweep(points, jobs=args.jobs, cache=cache,
                        timeout=args.timeout, journal=args.journal,
                        resume=args.resume, watchdog=args.watchdog)
    if args.json:
        import json
        print(json.dumps(results.to_dict(verbose=args.verbose), indent=2,
                         sort_keys=True))
        _print_failures(results)
        return 0 if results.ok else 1
    base = {(p.workload, p.mode): results.get(p) for p in points}
    rows = []
    for point in points:
        result = results.get(point)
        if result is None:
            rows.append([point.workload, point.mode.value, "FAILED", ""])
            continue
        ref = base.get((point.workload, ExecMode.BASE))
        speedup = (f"{result.speedup_over(ref):.2f}x"
                   if ref is not None and ref.cycles > 0 else "-")
        rows.append([point.workload, point.mode.value,
                     f"{result.cycles:.4g}", speedup])
    print(format_table(["workload", "mode", "cycles", "speedup"], rows,
                       title=f"sweep: {len(results)}/{len(points)} points "
                             f"(scale {args.scale:g})"))
    if args.journal:
        store = cache.root if cache is not None \
            else SweepJournal(args.journal).store_root
        print(f"[journal] {args.journal}: {results.resumed} point(s) "
              f"resumed, {len(results)} total completed (results in "
              f"{store})")
    _print_cache_stats(cache)
    _print_failures(results)
    return 0 if results.ok else 1


def cmd_list(_args) -> int:
    """List available workloads and execution modes."""
    print("workloads:", " ".join(WORKLOAD_NAMES))
    print("modes:    ", " ".join(MODES))
    return 0


def cmd_run(args) -> int:
    """Simulate one workload under one mode and print its metrics."""
    if not _check_workload(args.workload):
        return 2
    mode = MODES[args.mode]
    cache = _sweep_cache(args)
    point = SweepPoint(args.workload, mode, SystemConfig.ooo8(),
                       scale=args.scale, seed=args.seed)
    results = run_sweep([point], jobs=1, cache=cache, timeout=args.timeout)
    if not results.ok:
        _print_failures(results)
        return 1
    result = results[point]
    if args.json:
        import json
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.summary())
    print(f"  offloaded fraction : {result.offloaded_fraction():.1%}")
    print(f"  traffic by class   : "
          + "  ".join(f"{k}={v:.3g}"
                      for k, v in result.traffic.breakdown().items()))
    for phase in result.phases:
        print(f"  phase {phase.name:20s} {phase.cycles:12.4g} cycles "
              f"({phase.bottleneck}-bound)")
    return 0


def cmd_compare(args) -> int:
    """Run one workload under every mode and tabulate the comparison."""
    if not _check_workload(args.workload):
        return 2
    cache = _sweep_cache(args)
    system = SystemConfig.ooo8()
    points = {mode: SweepPoint(args.workload, mode, system,
                               scale=args.scale, seed=args.seed)
              for mode in ExecMode}
    results = run_sweep(points.values(), jobs=args.jobs, cache=cache,
                        timeout=args.timeout)
    if not results.ok:
        _print_failures(results)
        return 1
    base = results[points[ExecMode.BASE]]
    rows = []
    for mode in ExecMode:
        result = results[points[mode]]
        rows.append([mode.value, result.cycles,
                     result.speedup_over(base),
                     result.traffic.total_byte_hops
                     / max(base.traffic.total_byte_hops, 1e-9),
                     result.offloaded_fraction()])
    print(format_table(
        ["mode", "cycles", "speedup", "traffic vs base", "offloaded"],
        rows, title=f"{args.workload} (scale {args.scale:g})"))
    _print_cache_stats(cache)
    return 0


def cmd_compile(args) -> int:
    """Show what the near-stream compiler makes of a workload's kernels."""
    if not _check_workload(args.workload):
        return 2
    from repro.compiler.dump import dump_program
    from repro.compiler.program import compile_kernel
    from repro.mem.address import AddressSpace
    from repro.workloads.base import make_workload
    wl = make_workload(args.workload, scale=args.scale, seed=args.seed)
    wl.build(AddressSpace(SystemConfig.ooo8()))
    for phase in wl.phases():
        print(dump_program(compile_kernel(phase.kernel)))
        print()
    return 0


def cmd_table(args) -> int:
    """Print one of the paper's qualitative tables (I-VI)."""
    from repro.eval.tables import (table1_capabilities, table2_patterns,
                                   table3_stream_isas, table4_encoding,
                                   table5_system, table6_workloads)
    tables = {
        "1": table1_capabilities,
        "2": table2_patterns,
        "3": table3_stream_isas,
        "4": table4_encoding,
        "5": table5_system,
        "6": table6_workloads,
    }
    if args.number not in tables:
        print(f"unknown table {args.number!r}; choose from "
              f"{sorted(tables)}", file=sys.stderr)
        return 2
    print(tables[args.number]())
    return 0


def cmd_fig(args) -> int:
    """Regenerate one of the paper's figures as a text table."""
    from repro.eval.experiments import (
        EvalConfig, fig1a_stream_op_breakdown, fig1b_ideal_traffic,
        fig9_overall_speedup, fig11_offload_fractions,
        fig12_traffic_breakdown, fig15_affine_range_generation,
        fig16_lock_types, fig17_scalar_pe)
    cache = _sweep_cache(args)
    cfg = EvalConfig(scale=args.scale, seed=args.seed,
                     workloads=tuple(args.workloads or ()),
                     jobs=args.jobs, use_cache=cache is not None)
    number = args.number
    if number == "1a":
        data = fig1a_stream_op_breakdown(cfg)
        rows = [[n, d["stream_total"]] for n, d in data.items()]
        print(format_table(["workload", "stream fraction"], rows,
                           "Fig 1a"))
    elif number == "1b":
        data = fig1b_ideal_traffic(cfg)
        rows = [[n, d["no_priv"], d["perf_priv"], d["near_llc"]]
                for n, d in data.items()]
        print(format_table(["workload", "No-Priv$", "Perf-Priv$",
                            "Near-LLC"], rows, "Fig 1b"))
    elif number == "9":
        data = fig9_overall_speedup(cfg)
        modes = [m.value for m in ExecMode]
        rows = [[n] + [row.get(m, "") for m in modes]
                for n, row in data.items()]
        print(format_table(["workload"] + modes, rows, "Fig 9"))
    elif number == "11":
        data = fig11_offload_fractions(cfg)
        rows = [[n, d["stream_associated"], d["offloaded"]]
                for n, d in data.items()]
        print(format_table(["workload", "associated", "offloaded"], rows,
                           "Fig 11"))
    elif number == "12":
        data = fig12_traffic_breakdown(cfg)
        rows = [[n, d["ns"]["total"], d["ns_decouple"]["total"],
                 d["inst"]["total"]] for n, d in data.items()]
        print(format_table(["workload", "NS", "NS_decouple", "INST"],
                           rows, "Fig 12 (normalized to base)"))
    elif number == "15":
        data = fig15_affine_range_generation(cfg)
        rows = [[n, d["speedup_ratio"], d["traffic_ratio"]]
                for n, d in data.items()]
        print(format_table(["workload", "speedup(core/L3)",
                            "traffic(core/L3)"], rows, "Fig 15"))
    elif number == "16":
        data = fig16_lock_types(cfg)
        rows = [[n] + [v for v in d.values()] for n, d in data.items()]
        print(format_table(["workload", "metrics..."],
                           [[n, str(d)] for n, d in data.items()],
                           "Fig 16"))
    elif number == "17":
        data = fig17_scalar_pe(cfg)
        rows = [[n, v] for n, v in data.items()]
        print(format_table(["workload", "scalar PE speedup"], rows,
                           "Fig 17"))
    else:
        print(f"unknown figure {number!r} (try 1a 1b 9 11 12 15 16 17; "
              f"10/13/14 are sweep-heavy — use the benchmarks)",
              file=sys.stderr)
        return 2
    _print_cache_stats(cache)
    return 0


def cmd_report(args) -> int:
    """Run the headline experiments and print the paper-comparison block."""
    import numpy as _np

    from repro.eval.experiments import (
        EvalConfig, fig1b_ideal_traffic, fig9_overall_speedup,
        fig11_offload_fractions, fig12_traffic_breakdown)
    cache = _sweep_cache(args)
    cfg = EvalConfig(scale=args.scale, seed=args.seed,
                     workloads=tuple(args.workloads or ()),
                     jobs=args.jobs, use_cache=cache is not None)
    print(f"Running the headline sweep at scale {args.scale:g} "
          f"({len(cfg.workload_names())} workloads x 8 modes)...\n")

    f9 = fig9_overall_speedup(cfg)
    gm = f9["geomean"]
    f12 = fig12_traffic_breakdown(cfg)
    names = cfg.workload_names()
    red = {m: 1.0 - float(_np.mean([f12[n][m]["total"] for n in names]))
           for m in ("inst", "ns", "ns_decouple")}
    f11 = fig11_offload_fractions(cfg)
    f1b = fig1b_ideal_traffic(cfg)
    priv = 1.0 - float(_np.mean([f1b[n]["perf_priv"] for n in names]))
    near = 1.0 - float(_np.mean([f1b[n]["near_llc"] for n in names]))

    rows = [
        ["NS speedup (geomean)", "3.19x", f"{gm['ns']:.2f}x"],
        ["NS_decouple speedup", "4.27x", f"{gm['ns_decouple']:.2f}x"],
        ["NS over INST", "1.85x", f"{gm['ns'] / gm['inst']:.2f}x"],
        ["NS_decouple over SINGLE", "2.12x",
         f"{gm['ns_decouple'] / gm['single']:.2f}x"],
        ["traffic reduction, NS", "69%", f"{red['ns']:.0%}"],
        ["traffic reduction, NS_decouple", "76%",
         f"{red['ns_decouple']:.0%}"],
        ["traffic reduction, INST", "49%", f"{red['inst']:.0%}"],
        ["offloaded micro-ops (NS)", "46%*",
         f"{f11['average']['offloaded']:.0%}"],
        ["Fig 1b: perfect-priv$ reduction", "27%", f"{priv:.0%}"],
        ["Fig 1b: ideal near-LLC reduction", "64%", f"{near:.0%}"],
    ]
    print(format_table(["metric", "paper", "measured"], rows,
                       "Headline comparison"))
    print("\n* hot loops only here vs whole program in the paper "
          "(see EXPERIMENTS.md)")
    _print_cache_stats(cache)
    return 0


def _mesh_config(args) -> Optional[SystemConfig]:
    """The SystemConfig a command runs under (``--mesh N`` -> NxN).

    Degenerate dims exit with a short stderr message (carrying the
    preset-size hint) instead of a traceback; callers treat None as
    "already reported, exit 2" — the same contract as _check_workload.
    """
    if getattr(args, "mesh", None) is None:
        return SystemConfig.ooo8()
    try:
        return SystemConfig.paper_mesh(args.mesh)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None


def cmd_profile(args) -> int:
    """Run one workload+mode and print the simulator's own stage profile."""
    import time as _time
    from repro.sim.profiler import check_stage_totals, format_profile, \
        format_top_stages
    from repro.sim.run import run_workload

    if not _check_workload(args.workload):
        return 2
    mode = MODES[args.mode]
    config = _mesh_config(args)
    if config is None:
        return 2
    t0 = _time.perf_counter()
    result = run_workload(args.workload, mode, config=config,
                          scale=args.scale, seed=args.seed,
                          use_replay=not args.no_replay)
    wall = _time.perf_counter() - t0
    print(result.summary())
    print()
    print(format_profile(result.profile, wall))
    # Disjoint stages must sum to no more than the wall time; anything
    # else means a stage is double-counted.  --min-coverage additionally
    # requires the stages to account for that fraction of the wall.
    try:
        measured = check_stage_totals(result.profile, wall,
                                      min_coverage=args.min_coverage)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    if wall > 0:
        print(f"coverage: {measured / wall:.1%} of wall tracked by stages")
    if args.top:
        print(format_top_stages(result.profile, args.top, wall))
    return 0


def cmd_faults(args) -> int:
    """Sweep fault-injection rates and print the recovery-cost curve."""
    from repro.fault import (DEFAULT_RATES, fault_rate_curve, parse_sites,
                             plan_for)

    if not _check_workload(args.workload):
        return 2
    mode = MODES[args.mode]
    try:
        sites = parse_sites(args.sites)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.smoke:
        rates = (0.0, 1000.0)
        scale = min(args.scale, 1.0 / 256.0)
    else:
        rates = tuple(args.rates) if args.rates else DEFAULT_RATES
        scale = args.scale
    try:
        for rate in rates:
            plan_for(rate, sites)
    except ValueError as exc:
        print(f"repro faults: bad --rates value: {exc}", file=sys.stderr)
        return 2
    rows = fault_rate_curve(args.workload, mode=mode, rates=rates,
                            sites=sites, scale=scale, seed=args.seed,
                            fault_seed=args.fault_seed)
    if args.json:
        import json
        print(json.dumps(rows, indent=2))
        return 0
    table = [[f"{r['rate']:g}", f"{r['cycles']:.4g}",
              f"{r['slowdown']:.4f}", f"{r['traffic_ratio']:.4f}",
              r["injected"], r["episodes"],
              f"{r['derived_recovery_rate']:.1f}",
              f"{r['reexecuted_iterations']:.3g}"] for r in rows]
    print(format_table(
        ["rate/M", "cycles", "slowdown", "traffic", "injected",
         "episodes", "recov/M", "reexec iters"],
        table,
        title=f"{args.workload} {mode.value} fault curve "
              f"(sites: {','.join(s.value for s in sites)}, "
              f"scale {scale:g})"))
    if args.smoke:
        degraded = rows[-1]["cycles"] >= rows[0]["cycles"]
        injected = rows[-1]["injected"] > 0
        print(f"[smoke] injected={injected} monotone={degraded}")
        return 0 if (injected and degraded) else 1
    return 0


def cmd_trace(args) -> int:
    """Trace one run's protocol events; sanitize, summarize, export.

    Runs the workload with a collecting (non-strict) tracer so *every*
    invariant violation is reported in one pass, prints the metrics
    registry, optionally writes a Chrome trace-event JSON (``--out``),
    and exits non-zero if the sanitizer found violations.
    """
    from repro.sim.run import run_workload
    from repro.trace import Tracer, export_chrome_trace, format_metrics

    if not _check_workload(args.workload):
        return 2
    mode = MODES[args.mode]
    config = _mesh_config(args)
    if config is None:
        return 2
    tracer = Tracer(strict=False, keep_events=args.out is not None)
    result = run_workload(args.workload, mode, config=config,
                          scale=args.scale, seed=args.seed, tracer=tracer)
    print(result.summary())
    print()
    print(format_metrics(result.trace))
    if args.out:
        n = export_chrome_trace(tracer.events, args.out,
                                workload=args.workload)
        print(f"\nwrote {n} trace events to {args.out} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    for violation in tracer.violations:
        print(f"\nVIOLATION: {violation}", file=sys.stderr)
    return 1 if tracer.violations else 0


def cmd_cache(args) -> int:
    """Inspect or clear the persistent result cache."""
    from repro.eval.result_cache import max_entry_bytes

    cache = (set_default_cache(args.cache_dir) if args.cache_dir
             else get_default_cache())
    if args.action == "stats":
        disk = cache.disk_stats(by_kind=True)
        print(f"cache dir : {cache.root}")
        print(f"entries   : {disk['entries']} "
              f"({disk['bytes'] / 1e6:.1f} MB)")
        for kind in sorted(disk["kinds"]):
            bucket = disk["kinds"][kind]
            print(f"  {kind:<8}: {bucket['entries']} "
                  f"({bucket['bytes'] / 1e6:.1f} MB)")
        print(f"quarantine: {disk['quarantined_entries']} "
              f"({disk['quarantined_bytes'] / 1e6:.1f} MB)")
        total = disk["bytes"] + disk["quarantined_bytes"]
        print(f"total size: {total / 1e6:.1f} MB on disk")
        cap = max_entry_bytes()
        print(f"entry cap : "
              f"{'none' if cap is None else f'{cap / 1e6:.0f} MB'} "
              f"($REPRO_CACHE_MAX_MB)")
    elif getattr(args, "quarantine", False):
        removed = cache.clear_quarantine()
        print(f"removed {removed} quarantined entries from "
              f"{cache.quarantine_root}")
    else:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Near-stream computing reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and modes")

    # Workload names are validated by the handlers (with a did-you-mean
    # hint from the registry), not by argparse choices=, so unknown names
    # get a short stderr message instead of a usage dump.
    run_p = sub.add_parser("run", help="simulate one workload+mode")
    run_p.add_argument("workload")
    run_p.add_argument("--mode", choices=sorted(MODES), default="ns")
    run_p.add_argument("--json", action="store_true",
                       help="emit the result as JSON")
    _add_common(run_p, timeout=True, cache=True)

    cmp_p = sub.add_parser("compare", help="one workload, every mode")
    cmp_p.add_argument("workload")
    _add_common(cmp_p, jobs=True, timeout=True, cache=True)

    sweep_p = sub.add_parser(
        "sweep", help="durable multi-workload sweep (journal + resume)")
    sweep_p.add_argument("workloads", nargs="+")
    sweep_p.add_argument("--modes", nargs="+", choices=sorted(MODES),
                         default=["base", "ns"], metavar="MODE",
                         help="execution modes to sweep "
                              "(default: base ns)")
    sweep_p.add_argument("--journal", default=None, metavar="FILE",
                         help="append every completed/failed point to "
                              "this JSONL journal as it lands; results go "
                              "to the --cache store, or to FILE.store/")
    sweep_p.add_argument("--resume", action="store_true",
                         help="take --journal's points from the store and "
                              "compute only the rest (bit-identical "
                              "results; pass the same cache flags)")
    sweep_p.add_argument("--watchdog", type=_positive_seconds,
                         default=None, metavar="SEC",
                         help="kill and retry a group whose worker "
                              "stops heartbeating for SEC seconds "
                              "(default $REPRO_SWEEP_WATCHDOG)")
    sweep_p.add_argument("--json", action="store_true",
                         help="emit SweepResults.to_dict() as JSON "
                              "(stable across resumes)")
    sweep_p.add_argument("--verbose", action="store_true",
                         help="include clipped tracebacks in --json "
                              "failure records")
    sweep_p.add_argument("--mesh", type=int, default=None, metavar="N",
                         help="run on an NxN mesh (paper_mesh preset)")
    _add_common(sweep_p, jobs=True, timeout=True, cache=True)

    compile_p = sub.add_parser(
        "compile", help="dump the compiled stream program of a workload")
    compile_p.add_argument("workload")
    _add_common(compile_p)

    tab_p = sub.add_parser("table", help="print a paper table (1-6)")
    tab_p.add_argument("number")

    report_p = sub.add_parser(
        "report", help="headline paper-vs-measured comparison")
    report_p.add_argument("--workloads", nargs="*")
    _add_common(report_p, jobs=True, cache=True)

    fig_p = sub.add_parser("fig", help="regenerate a paper figure")
    fig_p.add_argument("number")
    fig_p.add_argument("--workloads", nargs="*",
                       help="restrict to these workloads")
    _add_common(fig_p, jobs=True, cache=True)

    prof_p = sub.add_parser(
        "profile", help="per-stage simulator wall-time breakdown")
    prof_p.add_argument("workload")
    prof_p.add_argument("--mode", choices=sorted(MODES), default="ns")
    prof_p.add_argument("--no-replay", action="store_true",
                        help="disable the functional-trace replay fast "
                             "path (measure the live functional pass)")
    prof_p.add_argument("--top", type=int, default=0, metavar="N",
                        help="print a one-line top-N stage share summary")
    prof_p.add_argument("--min-coverage", type=float, default=None,
                        metavar="FRAC",
                        help="fail unless the profiler stages account "
                             "for at least this fraction of the wall "
                             "time (e.g. 0.95)")
    prof_p.add_argument("--mesh", type=int, default=None, metavar="N",
                        help="run on an NxN mesh (paper_mesh preset) "
                             "instead of the default 8x8")
    _add_common(prof_p)

    trace_p = sub.add_parser(
        "trace", help="protocol event trace + invariant sanitizer")
    trace_p.add_argument("workload")
    trace_p.add_argument("--mode", choices=sorted(MODES), default="ns")
    trace_p.add_argument("--out", default=None, metavar="FILE",
                         help="write a Chrome trace-event JSON "
                              "(chrome://tracing / Perfetto)")
    trace_p.add_argument("--mesh", type=int, default=None, metavar="N",
                         help="run on an NxN mesh (paper_mesh preset)")
    _add_common(trace_p)

    faults_p = sub.add_parser(
        "faults", help="fault-injection recovery-cost curve")
    faults_p.add_argument("workload")
    faults_p.add_argument("--mode", choices=sorted(MODES), default="ns")
    faults_p.add_argument("--rates", type=float, nargs="*", metavar="R",
                          help="fault rates per million site opportunities")
    faults_p.add_argument("--sites", default=None, metavar="LIST",
                          help="comma-separated: alias,tlb,lock,scc "
                               "(default all)")
    faults_p.add_argument("--fault-seed", type=int, default=0,
                          help="seed for the injection draws")
    faults_p.add_argument("--smoke", action="store_true",
                          help="tiny two-rate sanity run (used by CI)")
    faults_p.add_argument("--json", action="store_true",
                          help="emit the curve as JSON")
    _add_common(faults_p)

    cache_p = sub.add_parser("cache",
                             help="persistent result cache utilities")
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.add_argument("--quarantine", action="store_true",
                         help="with clear: drop quarantined entries "
                              "only, leaving live entries intact")
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "compare": cmd_compare,
                "compile": cmd_compile, "table": cmd_table, "fig": cmd_fig,
                "report": cmd_report, "cache": cmd_cache,
                "profile": cmd_profile, "faults": cmd_faults,
                "trace": cmd_trace, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except SweepFailed as exc:
        # A figure (fig, report) refuses a sweep with failed points.
        _print_failures(exc.results)
        return 1


if __name__ == "__main__":
    sys.exit(main())
