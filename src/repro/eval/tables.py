"""Renderers for the paper's qualitative tables (I-VI).

Tables I and VI read the workload registry (Table VI also builds every
workload); they import it themselves, so the other tables load no
kernel code.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import SystemConfig
from repro.eval.report import format_table
from repro.isa.encoding import AFFINE_FIELDS, COMPUTE_FIELDS, INDIRECT_FIELDS
from repro.isa.pattern import ComputeKind
from repro.offload.modes import (
    AddrPattern,
    Support,
    TABLE1_PROPERTIES,
    TABLE3_STREAM_ISAS,
    Technique,
    supports,
    technique_pattern_count,
    workload_coverage,
)


def table1_capabilities() -> str:
    """Table I: capabilities of sub-thread near-data approaches."""
    from repro.workloads.base import workload_requirements
    reqs = workload_requirements()
    total_patterns = len(AddrPattern) * len(ComputeKind)
    headers = [""] + [t.value for t in Technique]
    rows = [
        ["Data Level"] + [TABLE1_PROPERTIES[t].data_level
                          for t in Technique],
        ["Prog. Transparent"] + [
            "Yes" if TABLE1_PROPERTIES[t].programmer_transparent else "No"
            for t in Technique],
        ["Loop Autonomous"] + [
            "Yes" if TABLE1_PROPERTIES[t].loop_autonomous else "No"
            for t in Technique],
        ["# Patterns (Tab II)"] + [
            f"{technique_pattern_count(t)}/{total_patterns}"
            for t in Technique],
        ["# Workloads"] + [
            f"{workload_coverage(t, reqs)}/{len(reqs)}" for t in Technique],
    ]
    return format_table(headers, rows,
                        "Table I: Capabilities of Sub-thread Near-data "
                        "Approaches")


_LETTER = {
    Technique.ACTIVE_ROUTING: "A",
    Technique.LIVIA: "L",
    Technique.OMNI_COMPUTE: "O",
    Technique.SNACK_NOC: "S",
    Technique.PIM_ENABLED: "P",
    Technique.NEAR_STREAM: "N",
}


def table2_patterns() -> str:
    """Table II: per-(address x compute) support; lowercase = partial."""
    headers = ["Compute \\ Address"] + [a.value for a in AddrPattern]
    rows: List[List[str]] = []
    for compute in ComputeKind:
        row = [compute.name.title()]
        for addr in AddrPattern:
            cell = []
            for tech in Technique:
                support = supports(tech, addr, compute)
                if support is Support.FULL:
                    cell.append(_LETTER[tech])
                elif support is Support.PARTIAL:
                    cell.append(_LETTER[tech].lower())
            row.append(" ".join(cell) or "-")
        rows.append(row)
    legend = ("A=ActiveRouting L=Livia O=Omni S=SnackNoC P=PIM-En "
              "N=NearStream; lowercase = partial (fine-grain) support")
    return format_table(headers, rows,
                        "Table II: Address and Compute Patterns") \
        + "\n" + legend


def table3_stream_isas() -> str:
    """Table III: capabilities of stream ISA works."""
    headers = ["Work", "Addr. Pattern", "Near-Data Compute?"]
    rows = [[w.name, ", ".join(w.addr_patterns), w.near_data]
            for w in TABLE3_STREAM_ISAS]
    return format_table(headers, rows,
                        "Table III: Capabilities of Stream ISA Works")


def table4_encoding() -> str:
    """Table IV: stream configuration fields and bit widths."""
    headers = ["Section", "Field", "Bits", "Description"]
    rows: List[List[str]] = []
    for section, fields in (("Affine", AFFINE_FIELDS),
                            ("Ind.", INDIRECT_FIELDS),
                            ("Cmp.", COMPUTE_FIELDS)):
        for field in fields:
            bits = (f"{field.bits}" if field.count == 1
                    else f"{field.bits} (x{field.count})")
            rows.append([section, field.name, bits, field.description])
    table = format_table(headers, rows,
                         "Table IV: Near-Stream Computing Configuration")
    totals = (f"Totals: affine={sum(f.total_bits for f in AFFINE_FIELDS)}b, "
              f"indirect={sum(f.total_bits for f in INDIRECT_FIELDS)}b, "
              f"compute={sum(f.total_bits for f in COMPUTE_FIELDS)}b")
    return table + "\n" + totals


def table5_system(config: SystemConfig = None) -> str:
    """Table V: system and microarchitecture parameters."""
    config = config or SystemConfig.ooo8()
    rows = [[k, v] for k, v in config.describe().items()]
    return format_table(["Parameter", "Value"], rows,
                        "Table V: System and Microarchitecture Parameters")


def table6_workloads(scale: float = 1.0 / 64.0) -> str:
    """Table VI: workloads, their classes, and (scaled) parameters."""
    from repro.mem.address import AddressSpace
    from repro.workloads.base import all_workload_names, make_workload
    headers = ["Benchmark", "Addr.", "Cmp", "Paper parameters",
               f"This run (scale={scale:.4g})"]
    rows = []
    for name in all_workload_names():
        wl = make_workload(name, scale=scale)
        cls = type(wl)
        wl.build(AddressSpace(SystemConfig.ooo8()))
        iters = wl.total_iterations
        rows.append([name, cls.addr_label, cls.cmp_label, cls.paper_params,
                     f"{iters:.3g} iterations"])
    return format_table(headers, rows, "Table VI: Workloads")
