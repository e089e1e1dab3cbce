"""Table 2 — micro-architecture parameters of each configuration."""

from __future__ import annotations

from repro.core import presets
from repro.analysis import report as rpt

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
    rows = [
        [name] + [read(presets.by_name(name)) for _, read in COLUMNS]
        for name in ("baseline", "sbi", "swi", "sbi_swi")
    ]
    by_name = {r[0]: r for r in rows}
    # The Table 2 anchor values.
    assert by_name["baseline"][1] == "32x32"
    assert by_name["sbi"][1] == "16x64"
    assert by_name["swi"][2] == 2  # scheduler latency
    assert by_name["baseline"][3] == 0 and by_name["sbi"][3] == 1
    assert by_name["baseline"][8] == "64" and by_name["sbi_swi"][8] == "104"
    headers = ["config"] + [header for header, _ in COLUMNS]
    report.add("Table 2: micro-architecture parameters", rpt.format_table(headers, rows))
