"""Evaluation harness: one function per paper table and figure.

``experiments`` computes the data; ``tables`` renders the qualitative
tables; ``report`` formats text tables and aggregates speedups
(``geomean``). The benchmark suite under
``benchmarks/`` calls these and prints paper-shaped output.

Exports resolve lazily (PEP 562), as in every ``repro`` package:
importing one submodule — e.g. the result cache from the replay fast
path — must not drag in the whole experiment suite.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EvalConfig": "repro.eval.experiments",
    "fig1a_stream_op_breakdown": "repro.eval.experiments",
    "fig1b_ideal_traffic": "repro.eval.experiments",
    "fig9_overall_speedup": "repro.eval.experiments",
    "fig10_energy_performance": "repro.eval.experiments",
    "fig11_offload_fractions": "repro.eval.experiments",
    "fig12_traffic_breakdown": "repro.eval.experiments",
    "fig13_scm_latency_sensitivity": "repro.eval.experiments",
    "fig14_scc_rob_sensitivity": "repro.eval.experiments",
    "fig15_affine_range_generation": "repro.eval.experiments",
    "fig16_lock_types": "repro.eval.experiments",
    "fig17_scalar_pe": "repro.eval.experiments",
    "run_all_modes": "repro.eval.experiments",
    "format_table": "repro.eval.report",
    "geomean": "repro.eval.report",
    "ResultCache": "repro.eval.result_cache",
    "config_fingerprint": "repro.eval.result_cache",
    "get_default_cache": "repro.eval.result_cache",
    "point_key": "repro.eval.result_cache",
    "set_default_cache": "repro.eval.result_cache",
    "FailedPoint": "repro.eval.sweep",
    "SweepFailed": "repro.eval.sweep",
    "SweepInterrupted": "repro.eval.sweep",
    "SweepJournal": "repro.eval.journal",
    "SweepPoint": "repro.eval.sweep",
    "SweepResults": "repro.eval.sweep",
    "resolve_jobs": "repro.eval.sweep",
    "resolve_watchdog": "repro.eval.sweep",
    "run_sweep": "repro.eval.sweep",
    "table1_capabilities": "repro.eval.tables",
    "table2_patterns": "repro.eval.tables",
    "table3_stream_isas": "repro.eval.tables",
    "table4_encoding": "repro.eval.tables",
    "table5_system": "repro.eval.tables",
    "table6_workloads": "repro.eval.tables",
})
