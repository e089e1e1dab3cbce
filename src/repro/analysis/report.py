"""Plain-text table formatting and summary statistics."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def gmean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's suite-aggregation statistic).

    An empty input is an error: a workload set filtered down to
    nothing must fail loudly instead of poisoning speedup tables
    with a silent ``0.0``.
    """
    vals = [v for v in values]
    if not vals:
        raise ValueError("gmean of an empty sequence is undefined")
    if any(v <= 0 for v in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width ASCII table."""
    cols = len(headers)
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(cols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out: List[str] = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(row[i].ljust(widths[i]) for i in range(cols)))
    return "\n".join(out)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)
