"""Plain-text table formatting and the speedup aggregate for the
benchmark harness."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, float, int]


def _fmt(cell: Cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, series: Dict[str, float],
                  normalize_to: Optional[str] = None) -> str:
    """Render one named series (e.g. a figure's bars) on one line."""
    items = series
    if normalize_to is not None and series.get(normalize_to):
        base = series[normalize_to]
        items = {k: v / base for k, v in series.items()}
    parts = [f"{k}={_fmt(v)}" for k, v in items.items()]
    return f"{name}: " + "  ".join(parts)


def geomean(values: List[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups.

    Raises ``ValueError`` on empty input or non-positive entries, which would
    silently corrupt a speedup aggregate otherwise.
    """
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean requires positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
