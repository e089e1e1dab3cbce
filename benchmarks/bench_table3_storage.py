"""Table 3 — per-component storage requirements (derived vs paper)."""

from __future__ import annotations

from repro.analysis import report as rpt
from repro.hwcost.storage import CONFIGS, STORAGE_PAPER, storage_table


def test_table3(report):
    table = storage_table()
    for component, row in table.items():
        for config, comp in row.items():
            derived = comp.geometry().split(",")[0].replace(" ", "")
            paper = STORAGE_PAPER[component][config].split(",")[0].replace(" ", "")
            assert derived == paper, (component, config, derived, paper)
    rows = [
        [component] + [row[c].geometry() for c in CONFIGS]
        for component, row in table.items()
    ]
    bit_rows = [
        ["total bits"]
        + [sum(table[comp][c].total_bits for comp in table) for c in CONFIGS]
    ]
    report.add(
        "Table 3: storage requirements",
        rpt.format_table(["component"] + list(CONFIGS), rows)
        + "\n"
        + rpt.format_table(["", *CONFIGS], bit_rows),
    )
