"""Registered-policy shoot-out: SWI and its relatives in the registry.

Sweeps the SWI-capable policies (``swi``, ``swi_greedy``, ``swi_rr``,
``dwr``) plus the ``warp64`` reference over divergent workloads — the
shapes where arbiter choice and warp resizing matter.  ``summary``
gives each one's gmean IPC gain over ``swi``, in percent:
``swi_greedy_gain_pct`` and ``swi_rr_gain_pct`` (arbiter order),
``warp64_gain_pct`` and ``dwr_gain_pct`` (Lashgar et al.: wide warps
win on coalescing and lose on divergence; dynamic warp resizing should
sit between).
"""

from __future__ import annotations

from typing import Dict

from repro.api import ResultSet, SweepSpec

POLICY_SET = ("warp64", "swi", "swi_greedy", "swi_rr", "dwr")
WORKLOADS = ("mandelbrot", "eigenvalues", "bfs", "lud")


def spec(size: str) -> SweepSpec:
    return SweepSpec.from_presets(POLICY_SET, WORKLOADS, size)


#: The paper's value per ``summary`` name (``fidelity.py``): none, these
#: policies are not the paper's; each ``because`` says what the row
#: shows (values at bench / full).
PAPER = {
    "swi_greedy_gain_pct": dict(
        paper=None,
        because="-2.29 % / -1.75 %: the greedy max-coverage secondary arbiter "
        "loses to swi's on these kernels",
    ),
    "swi_rr_gain_pct": dict(
        paper=None,
        because="+0.01 % / +0.14 %: the loose-round-robin primary arbiter shows "
        "nothing yet; WaSP-style ordering (ROADMAP, parked) is why it stays",
    ),
    "warp64_gain_pct": dict(
        paper=None,
        because="-13.22 % / -13.81 %: on these divergent kernels 64-wide warps "
        "without interweaving lose to SWI, Lashgar's divergence cost",
    ),
    "dwr_gain_pct": dict(
        paper=None,
        because="-27.53 % / -27.61 %: DWR sits below warp64, not between "
        "warp64 and swi as this module expects; ROADMAP item 12 attributes it",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    return {
        "%s_gain_pct" % policy: 100 * (gain - 1)
        for policy, gain in rs.geo_mean(base="swi").items()
        if policy != "swi"
    }


def test_policies(rs, report, bench_size):
    assert not rs.errors, rs.errors
    report.add("Registered policies (IPC @ %s)" % bench_size, rs.to_text(), summary(rs))
