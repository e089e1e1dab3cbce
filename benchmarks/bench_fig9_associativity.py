"""Figure 9 — SWI lookup set-associativity on irregular applications.

Suite-gmean IPC of an 11-way / 3-way / direct-mapped secondary-scheduler
lookup relative to fully associative: ``eleven_way_ratio``,
``three_way_ratio``, ``direct_mapped_ratio``.  Paper: even
direct-mapped keeps at least 85% of the fully-associative performance
(96% regular), so the CAM can be replaced by a cheap set-associative
search.
"""

from __future__ import annotations

from typing import Dict

from repro.api import ResultSet, SweepSpec
from repro.core import presets
from repro.workloads.suite import IRREGULAR

#: ``swi_ways`` of the paper's sweep, beside None = fully associative.
WAYS = {11: "eleven_way", 3: "three_way", 1: "direct_mapped"}
BASE = "swi/swi_ways=None"


def spec(size: str) -> SweepSpec:
    grid = SweepSpec(IRREGULAR, {"swi": presets.swi()}, size=size)
    return grid.with_axes(swi_ways=[None, *WAYS])


#: The paper's value per ``summary`` name, the band a measurement
#: matches in, and why a row outside it misses or what an unscored
#: one shows (``fidelity.py``):
#: direct-mapped keeps "at least 85 %".
PAPER = {
    "direct_mapped_ratio": dict(paper=0.85, band=(0.85, 1.0)),
    "three_way_ratio": dict(
        paper=None,
        because="3-way keeps 0.9754 / 0.9727 (bench / full), between 11-way "
        "and direct-mapped: fewer ways lose more, the paper's shape; it "
        "states only the direct-mapped floor",
    ),
    "eleven_way_ratio": dict(
        paper=None,
        because="11-way keeps 0.9992 / 0.9935 (bench / full): within 1 % of "
        "the fully associative CAM",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    kept = rs.geo_mean(base=BASE)
    return {"%s_ratio" % label: kept["swi/swi_ways=%d" % ways] for ways, label in WAYS.items()}


def test_fig9(rs, report, bench_size):
    assert not rs.errors, rs.errors
    kept = summary(rs)
    title = "Figure 9: SWI associativity (ratio vs fully associative)"
    report.add(title, rs.to_text(base=BASE), kept)
    # Paper shape: direct-mapped keeps most of the benefit.
    assert kept["direct_mapped_ratio"] > 0.80
