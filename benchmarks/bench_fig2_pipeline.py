"""Figure 2 — pipeline contents on the running if-then-else example.

Renders the execution pipeline for classic SIMT, SBI with and without
reconvergence constraints, SWI, and SBI+SWI on the paper's
6-instruction if-then-else with 2 warps of 4 threads, and checks the
structural claims the figure illustrates (co-issue happens, functional
results agree everywhere).
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline_trace import figure2_example

MODES = ("baseline", "sbi_nc", "sbi", "swi", "sbi_swi")
TITLES = {
    "baseline": "(a) SIMT",
    "sbi_nc": "(b) SBI (no constraints)",
    "sbi": "(c) SBI with constraints",
    "swi": "(d) SWI",
    "sbi_swi": "(e) SBI+SWI",
}


@pytest.fixture(scope="module")
def traces():
    return {mode: figure2_example(mode) for mode in MODES}


def test_fig2(traces, report):
    for mode, (stats, art) in traces.items():
        report.add("Figure 2 %s (cycles=%d)" % (TITLES[mode], stats.cycles), art)
    # The dual front-end must actually co-issue on this example.
    for mode in ("sbi", "sbi_nc", "sbi_swi"):
        assert traces[mode][0].issued_sbi_secondary > 0
    # All modes execute the same, non-zero number of thread instructions.
    counts = {mode: stats.thread_instructions for mode, (stats, _) in traces.items()}
    assert len(set(counts.values())) == 1 and min(counts.values()) > 0, counts
