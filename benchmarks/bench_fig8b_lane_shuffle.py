"""Figure 8b — SWI lane-shuffling policies on irregular applications.

Suite-gmean IPC gain of each mapping over the identity mapping under
SWI: ``mirror_odd_gain_pct``, ``mirror_half_gain_pct``, ``xor_gain_pct``
and ``xor_rev_gain_pct``.  Paper: XorRev is the most consistent, +1.4%
irregular (+0.3% regular), best case Needleman-Wunsch +7.7%, and the
gains come at zero hardware cost.
"""

from __future__ import annotations

from typing import Dict

from repro.api import ResultSet, SweepSpec
from repro.core import presets
from repro.timing import lanes
from repro.workloads.suite import IRREGULAR

BASE = "swi/lane_shuffle=identity"


def spec(size: str) -> SweepSpec:
    grid = SweepSpec(IRREGULAR, {"swi": presets.swi()}, size=size)
    return grid.with_axes(lane_shuffle=lanes.POLICIES)


#: The paper's value per ``summary`` name, the band a measurement
#: matches in, and why a row outside it misses or what an unscored
#: one shows (``fidelity.py``).
PAPER = {
    "xor_rev_gain_pct": dict(
        paper=1.4, band=(0.4, 2.4),
        because="cause open: the lane-shuffle sweep per irregular kernel at "
        "full, against the paper's best case (Needleman-Wunsch +7.7); at tiny "
        "too few warps are resident for a mapping to matter",
    ),
    "mirror_odd_gain_pct": dict(
        paper=None,
        because="+4.84 % / +3.74 % (bench / full), above xor_rev's +4.67 / "
        "+3.29: here the paper's most consistent mapping is not the best one",
    ),
    "mirror_half_gain_pct": dict(
        paper=None,
        because="+2.80 % / +3.18 % (bench / full): third of the four mappings "
        "at both sizes, and every one beats the identity",
    ),
    "xor_gain_pct": dict(
        paper=None,
        because="+1.67 % / +2.34 % (bench / full): the least of the four "
        "mappings, below xor_rev's +4.67 / +3.29",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    return {
        "%s_gain_pct" % config.split("=")[1]: 100 * (gain - 1)
        for config, gain in rs.geo_mean(base=BASE).items()
        if config != BASE
    }


def test_fig8b(rs, report, bench_size):
    assert not rs.errors, rs.errors
    title = "Figure 8b: SWI lane shuffling (speedup vs identity)"
    report.add(title, rs.to_text(base=BASE), summary(rs))
