"""Table 1 — lane shuffle functions and their lane-vs-thread diagrams."""

from __future__ import annotations

from repro.analysis import report as rpt
from repro.timing import lanes

FUNCTIONS = {
    "identity": "tid",
    "mirror_odd": "n - tid if wid odd, tid otherwise",
    "mirror_half": "n - tid if wid > m/2, tid otherwise",
    "xor": "tid XOR wid",
    "xor_rev": "tid XOR bitrev(wid)",
}


def _build_table():
    rows = []
    for policy in lanes.POLICIES:
        perms = [lanes.permutation(policy, w, 64, 16) for w in range(16)]
        rows.append([policy, FUNCTIONS[policy], len(perms)])
    return rows


def test_table1(report):
    rows = _build_table()
    assert len(rows) == 5
    body = rpt.format_table(["name", "function", "warps checked"], rows)
    for policy in lanes.POLICIES:
        body += "\n\n%s:\n%s" % (policy, lanes.diagram(policy, 4, 4))
    report.add("Table 1: lane shuffle functions", body)
