"""Figure 7 — IPC of Baseline / SBI / SWI / SBI+SWI / Warp64.

Both panels of the paper's headline figure: thread instructions per
cycle for every workload under the five configurations, and the suite
geometric-mean gain over the baseline in percent (TMD excluded from
means, as in the paper).  The paper's gains, by ``summary`` name:
``sbi_swi_gain_regular_pct`` +23 and ``sbi_swi_gain_irregular_pct``
+40; ``sbi_gain_regular_pct`` +15 and ``sbi_gain_irregular_pct`` +41;
``swi_gain_regular_pct`` +25 and ``swi_gain_irregular_pct`` +33
(``warp64_gain_regular_pct`` / ``warp64_gain_irregular_pct`` are the
64-wide thread-frontier reference), at each configuration's peak IPC
(``bench_table2_parameters.PAPER``), which every cell is held to.  The grid
is saved as ``benchmarks/results/figure7.json`` (``ResultSet.from_json``).
"""

from __future__ import annotations

import os
from typing import Dict

from repro.api import ResultSet, SweepSpec
from repro.workloads import normalize_size
from repro.workloads.suite import IRREGULAR, REGULAR

PANELS = {"regular": ("7a", REGULAR), "irregular": ("7b", IRREGULAR)}
RESULTS_JSON = os.path.join(os.path.dirname(__file__), "results", "figure7.json")


def spec(size: str) -> SweepSpec:
    return SweepSpec.figure7(size)


#: Why the SBI+SWI, SBI and SWI gains miss (``tiny`` grids are 1-4
#: CTAs, where the gains are not the paper's shape at all).
_SBI_SWI = (
    "cause open: sweep the Table 2 knobs (dram_latency, warp_count, "
    "scoreboard_entries, fetch_width) on sbi_swi at full; "
    "ROADMAP item 3 (a), SBI+SWI dropping SBI's co-issue at low occupancy, "
    "is the first suspect"
)
_SBI = (
    "cause open: the same Table 2 knob sweep on sbi at full; SBI gains only "
    "where both sides of a branch are ready, so warp_count and dram_latency "
    "come first"
)
_SWI = (
    "cause open: the same Table 2 knob sweep on swi at full; ROADMAP item "
    "3 (e), the SWI delivery stage on every dependent link, is the first suspect"
)

#: The paper's value per ``summary`` name, the band a measurement
#: matches in, and why a row outside it misses or what an unscored
#: one shows (``fidelity.py``):
#: Figure 7's gains read to +-5 points.
PAPER = {
    "sbi_swi_gain_regular_pct": dict(paper=23.0, band=(18.0, 28.0), because=_SBI_SWI),
    "sbi_swi_gain_irregular_pct": dict(paper=40.0, band=(35.0, 45.0), because=_SBI_SWI),
    "sbi_gain_regular_pct": dict(paper=15.0, band=(10.0, 20.0), because=_SBI),
    "sbi_gain_irregular_pct": dict(paper=41.0, band=(36.0, 46.0), because=_SBI),
    "swi_gain_regular_pct": dict(paper=25.0, band=(20.0, 30.0), because=_SWI),
    "swi_gain_irregular_pct": dict(paper=33.0, band=(28.0, 38.0), because=_SWI),
    "warp64_gain_regular_pct": dict(
        paper=None,
        because="the 64-wide reference gains +3.25 % / +3.69 % (bench / full) "
        "on regular kernels, against SWI's +9.39 / +8.50 at the same warp width",
    ),
    "warp64_gain_irregular_pct": dict(
        paper=None,
        because="the 64-wide reference gains +5.28 % / +3.16 % (bench / full) "
        "on irregular kernels, against SWI's +16.21 / +13.29 at the same warp width",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    return {
        "%s_gain_%s_pct" % (config, panel): 100 * (gain - 1)
        for panel, (_, names) in PANELS.items()
        for config, gain in rs.filter(workload=names).geo_mean(base="baseline").items()
        if config != "baseline"
    }


def test_fig7(rs, report, bench_size):
    assert not rs.errors, rs.errors
    configs = spec(bench_size).configs
    for cell in rs:
        assert cell.stats.cycles > 0, cell.key
        assert cell.stats.ipc <= configs[cell.config].peak_ipc + 1e-9, cell.key
    os.makedirs(os.path.dirname(RESULTS_JSON), exist_ok=True)
    rs.to_json(RESULTS_JSON)
    assert ResultSet.from_json(RESULTS_JSON) == rs
    gains = summary(rs)
    for panel, (figure, names) in PANELS.items():
        panel_rs = rs.filter(workload=names)
        report.add("Figure %s %s: IPC" % (figure, panel), panel_rs.to_text())
        report.add(
            "Figure %s %s: speedup vs baseline" % (figure, panel),
            panel_rs.to_text(base="baseline"),
            {k: v for k, v in gains.items() if k.endswith("_%s_pct" % panel)},
        )
        # Tiny grids exercise the machinery, not the claims: their
        # divergence/occupancy profiles are not the paper's.
        if normalize_size(bench_size) != "tiny":
            assert gains["sbi_swi_gain_%s_pct" % panel] > 0, "SBI+SWI must beat the baseline"
