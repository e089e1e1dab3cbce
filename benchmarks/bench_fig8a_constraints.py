"""Figure 8a — effect of SBI reconvergence constraints.

The paper finds constraints performance-neutral for SBI alone
(``sbi_constraints_gain_pct`` < 0.1: suite gmean of constrained over
unconstrained IPC) while cutting issued instructions
(``sbi_issue_delta_regular_pct`` -1.3, ``sbi_issue_delta_irregular_pct``
-5.5: mean change in issue count), with small swings for SBI+SWI
(``sbi_swi_constraints_gain_pct``; SortingNetworks +2.4%, BFS/Histogram
slightly negative because they like running ahead).
"""

from __future__ import annotations

from typing import Dict

from repro.api import ResultSet, SweepSpec
from repro.workloads.suite import ALL_WORKLOADS, IRREGULAR, MEAN_EXCLUDED, REGULAR

MODES = ("sbi", "sbi_swi")


def spec(size: str) -> SweepSpec:
    grid = SweepSpec.from_presets(MODES, sorted(ALL_WORKLOADS), size)
    return grid.with_axes(sbi_constraints=[True, False])


def _pair(rs: ResultSet, mode: str):
    """``mode``'s two columns, then the constrained and the other's name."""
    on, off = ("%s/sbi_constraints=%s" % (mode, flag) for flag in (True, False))
    return rs.filter(config=(on, off)), on, off


#: The paper's value per ``summary`` name, the band a measurement
#: matches in, and why a row outside it misses or what an unscored
#: one shows (``fidelity.py``).
PAPER = {
    "sbi_constraints_gain_pct": dict(
        paper=0.0, band=(-0.1, 0.1),
        because="cause open: constraints on and off per kernel at full (the "
        "paper's per-kernel bars), to find the kernels that gain from waiting "
        "at reconvergence",
    ),
    "sbi_issue_delta_regular_pct": dict(
        paper=-1.3, band=(-2.3, -0.3),
        because="cause open: issue counts with constraints on and off per "
        "regular kernel at full; the regular kernels here diverge less than "
        "the paper's",
    ),
    "sbi_issue_delta_irregular_pct": dict(
        paper=-5.5, band=(-7.5, -3.5),
        because="cause open: the same per-kernel issue-count sweep over the "
        "irregular kernels at full",
    ),
    "sbi_swi_constraints_gain_pct": dict(
        paper=None,
        because="+0.38 % / +0.45 % (bench / full): constraints stay close to "
        "neutral under SBI+SWI too; the paper gives per-kernel swings "
        "(SortingNetworks +2.4 %), no suite value",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    out = {}
    for mode in MODES:
        pair, on, off = _pair(rs, mode)
        out["%s_constraints_gain_pct" % mode] = 100 * (pair.geo_mean(base=off)[on] - 1)
    pair, on, off = _pair(rs, "sbi")
    issued = pair.pivot(metric="instructions_issued")
    for panel, names in (("regular", REGULAR), ("irregular", IRREGULAR)):
        deltas = [
            (row[on] - row[off]) / row[off]
            for workload, row in issued.items()
            if workload in names and workload not in MEAN_EXCLUDED
        ]
        out["sbi_issue_delta_%s_pct" % panel] = 100 * sum(deltas) / len(deltas)
    return out


def test_fig8a(rs, report, bench_size):
    assert not rs.errors, rs.errors
    tables = []
    for mode, metric in (("sbi", "ipc"), ("sbi", "instructions_issued"), ("sbi_swi", "ipc")):
        pair, _, off = _pair(rs, mode)
        tables.append("%s, constrained over not:\n%s" % (metric, pair.to_text(metric, base=off)))
    numbers = summary(rs)
    report.add("Figure 8a: SBI reconvergence constraints", "\n\n".join(tables), numbers)
    # Paper shape: constraints are close to performance-neutral for SBI.
    assert abs(numbers["sbi_constraints_gain_pct"]) < 5.0
