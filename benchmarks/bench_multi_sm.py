"""Multi-SM scaling — device IPC under the shared L2/DRAM hierarchy.

Not a paper figure: this sweeps the device layer (GigaThread CTA
dispatch, shared sectored L2, partitioned DRAM) over SM counts, with
the paper's 10 B/cycle per-SM bandwidth share held constant.  Regular
workloads should scale close to linearly until the grid runs out of
CTAs; irregular ones saturate earlier on memory and divergence.
``summary`` gives the gmean IPC of four SMs over one per mode
(``baseline_scaling_ratio``, ``sbi_swi_scaling_ratio``) and the worst
single row (``min_scaling_ratio``), which must stay above 0.95: adding
SMs must not slow the device down.
"""

from __future__ import annotations

from typing import Dict

from repro.api import ResultSet, SweepSpec
from repro.core import presets

WORKLOADS = ("matrixmul", "transpose", "bfs", "histogram")
MODES = ("baseline", "sbi_swi")
SM_COUNTS = (1, 2, 4)


def spec(size: str) -> SweepSpec:
    devices = {
        "%s x%d" % (mode, n): presets.device(mode, sm_count=n)
        for mode in MODES
        for n in SM_COUNTS
    }
    return SweepSpec(WORKLOADS, devices, size=size)


#: The paper's value per ``summary`` name (``fidelity.py``): none, the
#: paper models one SM.  At bench three of the four grids are 4 CTAs,
#: which one SM holds at once, so four SMs cannot give 4x there.
PAPER = {
    "baseline_scaling_ratio": dict(
        paper=None,
        because="four SMs give 2.20x / 3.34x one SM (bench / full) under the "
        "baseline: the device layer scales while the grid has CTAs to spread",
    ),
    "sbi_swi_scaling_ratio": dict(
        paper=None,
        because="four SMs give 2.18x / 3.27x one SM (bench / full) under "
        "SBI+SWI, within 0.08 of the baseline's scaling",
    ),
    "min_scaling_ratio": dict(
        paper=None,
        because="the worst kernel's four-SM speed-up is 1.20x / 2.18x (bench "
        "/ full); test_multi_sm holds it at 0.95 or more: adding SMs never "
        "slows the device",
    ),
}


def summary(rs: ResultSet) -> Dict[str, float]:
    out = {}
    rows = []
    for mode in MODES:
        one, most = ("%s x%d" % (mode, n) for n in (SM_COUNTS[0], SM_COUNTS[-1]))
        out["%s_scaling_ratio" % mode] = rs.geo_mean(base=one, exclude=())[most]
        rows += [row[most] for row in rs.speedup_over(one).values()]
    out["min_scaling_ratio"] = min(rows)
    return out


def test_multi_sm(rs, report, bench_size):
    assert not rs.errors, rs.errors
    devices = spec(bench_size).configs
    for cell in rs:
        device = devices[cell.config]
        assert cell.stats.cycles > 0, cell.key
        # Device peak: per-SM issue bound times the SM count.
        assert cell.stats.ipc <= device.sm.peak_ipc * device.sm_count + 1e-9, cell.key
    scaling = summary(rs)
    report.add("Multi-SM scaling: device IPC", rs.to_text(mean=None), scaling)
    assert scaling["min_scaling_ratio"] >= 0.95, "adding SMs must not slow the device down"
