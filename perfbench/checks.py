"""Output checks behind ``ok_share``; they run after the timed rounds.

Each check returns one flag per op execution (rounds x ops), so
``ok_share`` is the share of executions whose output passed.  A check
compares the program's output with an independent path or with itself
across rounds; it never compares with stored expectations, because a
perf change must leave every simulated statistic bit-identical, not
equal to a number frozen here.

Results arrive as canonical JSON strings of ``SimResult.to_dict()``
(``json.dumps(..., sort_keys=True)``), so string equality is bit
equality of every field.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

Flags = List[List[bool]]


def check_sim_warm(rounds: Sequence[Sequence[str]],
                   reference: Sequence[Optional[str]]) -> Flags:
    """Every op's result equals the store-free path's for the same point."""
    return [[ref is not None and got == ref
             for got, ref in zip(results, reference)]
            for results in rounds]


def accounting_holds(acct: Optional[Sequence[float]]) -> bool:
    """``committed + reexecuted == offloaded`` from ``SimResult.faults``."""
    if acct is None:
        return False
    committed, reexecuted, offloaded = acct
    return math.isclose(committed + reexecuted, offloaded,
                        rel_tol=1e-9, abs_tol=1e-9)


def check_faults(rounds: Sequence[Sequence[str]],
                 accts: Sequence[Sequence[Optional[Sequence[float]]]]
                 ) -> Flags:
    """Identical results across rounds, and the episode accounting."""
    first = rounds[0]
    return [[got == ref and accounting_holds(a)
             for got, ref, a in zip(results, first, acct)]
            for results, acct in zip(rounds, accts)]


def check_sweep_cold(rounds: Sequence[Dict]) -> Flags:
    """Per round: every ``SweepResults.ok``, identical results across
    rounds, every stored result reading back equal, and no quarantined
    entry or write error in the round's store."""
    first = rounds[0]["results"]
    flags = []
    for rnd in rounds:
        clean = rnd["quarantined"] == 0 and rnd["write_errors"] == 0
        flags.append([
            clean and ok and None not in got and got == ref and back == got
            for ok, got, ref, back in zip(rnd["oks"], rnd["results"], first,
                                          rnd["readback"])])
    return flags


_NUMBER = re.compile(r"\d+(\.\d+)?(e[+-]?\d+)?%?")


def comparable_stdout(argv: Sequence[str], text: str) -> Tuple[str, ...]:
    """A command's stdout with what legitimately varies taken out.

    ``repro profile`` prints host timings: its first line (the simulated
    summary) must match exactly, while its stage table is compared with
    every number masked, padding collapsed and rows sorted, since column
    widths and row order follow the timings.
    Every other command's stdout must match byte for byte.
    """
    if argv and argv[0] == "profile":
        lines = text.splitlines()
        return (lines[0] if lines else "",
                *sorted(" ".join(_NUMBER.sub("#", line).split())
                        for line in lines[1:]))
    return (text,)


def check_cli(ops: Sequence[Dict], rounds: Sequence[Dict]) -> Flags:
    """Exit code 0, and stdout identical across rounds (see above)."""
    first = [comparable_stdout(op["argv"], out)
             for op, out in zip(ops, rounds[0]["stdout"])]
    return [[code == 0 and comparable_stdout(op["argv"], out) == ref
             for op, code, out, ref in zip(ops, rnd["codes"], rnd["stdout"],
                                           first)]
            for rnd in rounds]


def tally(flags: Flags) -> Tuple[int, int]:
    """(attempted, failed) op executions."""
    attempted = sum(len(row) for row in flags)
    return attempted, attempted - sum(sum(row) for row in flags)
