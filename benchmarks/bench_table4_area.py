"""Table 4 — component areas (model vs the paper's RTL synthesis)."""

from __future__ import annotations

import pytest

from repro.analysis import report as rpt
from repro.hwcost.area import AREA_PAPER, CONFIGS, OVERHEAD_PAPER, area_table, overhead_percent


def test_table4_close_to_paper():
    table = area_table()
    for row_name, paper_row in AREA_PAPER.items():
        for config in CONFIGS:
            model, paper = table[row_name].get(config), paper_row.get(config)
            if model is None or paper is None:
                assert model is None and paper is None
                continue
            assert model == pytest.approx(paper, rel=0.05), (row_name, config)


def test_table4_overheads():
    for config, paper in OVERHEAD_PAPER.items():
        assert overhead_percent(config) == pytest.approx(paper, abs=0.25)


def test_table4_report(report):
    table = area_table()
    rows = []
    for row_name, paper_row in AREA_PAPER.items():
        cells = [row_name]
        for config in CONFIGS:
            model = table[row_name].get(config)
            cells.append("-" if model is None else "%.1f (paper %.1f)" % (model, paper_row[config]))
        rows.append(cells)
    body = rpt.format_table(["component (x1000 um^2)"] + list(CONFIGS), rows)
    for config, paper in OVERHEAD_PAPER.items():
        body += "\n%s SM overhead: %.2f%% (paper %.1f%%)" % (config, overhead_percent(config), paper)
    report.add("Table 4: area model", body)
