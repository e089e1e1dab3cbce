"""Table 2 — micro-architecture parameters of each configuration.

``PAPER`` is the repo's one copy of Table 2 and of the paper's peak
IPC; ``test_table2`` here and ``tests/test_figures.py`` at tier 1 hold
every preset to it exactly.
"""

from __future__ import annotations

from repro.core import presets
from repro.analysis import report as rpt

CONFIGS = ("baseline", "sbi", "swi", "sbi_swi")

#: The paper's Table 2, restated by hand: ``SMConfig`` field ->
#: configuration -> value, plus the peak thread IPC of every Figure 7
#: configuration.  Every configuration keeps 6 scoreboard
#: entries per warp; SBI's are rows of the dependency matrix (Table 3
#: gives each configuration's scoreboard as 6 entries per warp).
PAPER = {
    "warp_count": {"baseline": 32, "sbi": 16, "swi": 16, "sbi_swi": 16},
    "warp_width": {"baseline": 32, "sbi": 64, "swi": 64, "sbi_swi": 64},
    "scheduler_latency": {"baseline": 1, "sbi": 1, "swi": 2, "sbi_swi": 2},
    "delivery_latency": {"baseline": 0, "sbi": 1, "swi": 1, "sbi_swi": 1},
    "exec_latency": {"baseline": 8, "sbi": 8, "swi": 8, "sbi_swi": 8},
    "scoreboard_entries": {"baseline": 6, "sbi": 6, "swi": 6, "sbi_swi": 6},
    # The memory system is the same in every configuration: a 48 KB,
    # 6-way L1 of 128 B blocks at 3 cycles, and 10 GB/s of DRAM at
    # 330 ns, both at 1 GHz.
    "l1_size": dict.fromkeys(CONFIGS, 48 * 1024),
    "l1_ways": dict.fromkeys(CONFIGS, 6),
    "l1_block": dict.fromkeys(CONFIGS, 128),
    "l1_latency": dict.fromkeys(CONFIGS, 3),
    "dram_bandwidth": dict.fromkeys(CONFIGS, 10.0),
    "dram_latency": dict.fromkeys(CONFIGS, 330),
    # 64 for the 32-wide baseline and the 64-wide reference, 104 with
    # interweaving.
    "peak_ipc": {"baseline": 64.0, "sbi": 104.0, "swi": 104.0, "sbi_swi": 104.0, "warp64": 64.0},
}

#: Column header and how to read it off an ``SMConfig``.
COLUMNS = (
    ("warps x width", lambda c: "%dx%d" % (c.warp_count, c.warp_width)),
    ("sched lat", lambda c: c.scheduler_latency),
    ("delivery lat", lambda c: c.delivery_latency),
    ("exec lat", lambda c: c.exec_latency),
    ("scoreboard", lambda c: c.scoreboard_entries),
    ("L1", lambda c: "%dK/%d-way/%dB/%dc" % (c.l1_size // 1024, c.l1_ways, c.l1_block, c.l1_latency)),
    ("memory", lambda c: "%.0f B/c, %d c" % (c.dram_bandwidth, c.dram_latency)),
    ("peak IPC", lambda c: "%.0f" % c.peak_ipc),
)


def test_table2(report):
    for field, paper in PAPER.items():
        assert {c: getattr(presets.by_name(c), field) for c in paper} == paper, field
    rows = [
        [name] + [read(presets.by_name(name)) for _, read in COLUMNS]
        for name in CONFIGS
    ]
    headers = ["config"] + [header for header, _ in COLUMNS]
    report.add("Table 2: micro-architecture parameters", rpt.format_table(headers, rows))
