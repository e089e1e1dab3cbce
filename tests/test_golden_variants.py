"""Byte pins on the arbiters ``golden_smoke.json`` does not cover.

``tests/data/golden_smoke.json`` is 21 workloads x the five Figure 7
modes; the exploration arbiters (``swi_greedy``, ``swi_rr``, ``dwr``),
the set-associative SWI window (Figure 9), unconstrained SBI (Figure
8a) and the non-default scoreboards had one pinned IPC between them.
``tests/data/golden_variants.json`` holds the full ``Stats.to_dict()``
of four kernels at ``tiny`` under each of those.  It was written by
the last tree whose schedulers rescanned every live warp per cycle
(the commit before the ready set); a diff means arbitration moved,
not that the fixture needs regenerating.
"""

import json
import os

from repro.core import presets
from repro.core.simulator import simulate
from repro.workloads import get_workload

GOLDEN_VARIANTS = os.path.join(
    os.path.dirname(__file__), "data", "golden_variants.json"
)

WORKLOADS = ("mandelbrot", "bfs", "histogram", "matrixmul")

#: tag -> (policy name, SMConfig overrides).
VARIANTS = {
    "swi_greedy": ("swi_greedy", {}),
    "swi_rr": ("swi_rr", {}),
    "dwr": ("dwr", {}),
    "swi/ways1": ("swi", {"swi_ways": 1}),
    "swi/ways4": ("swi", {"swi_ways": 4}),
    "sbi_swi/ways1": ("sbi_swi", {"swi_ways": 1}),
    "sbi_swi/ways4": ("sbi_swi", {"swi_ways": 4}),
    "sbi/unconstrained": ("sbi", {"sbi_constraints": False}),
    "sbi_swi/unconstrained": ("sbi_swi", {"sbi_constraints": False}),
    "sbi/sb_mask": ("sbi", {"scoreboard_kind": "mask"}),
    "sbi/sb_warp": ("sbi", {"scoreboard_kind": "warp"}),
    "sbi_swi/sb_mask": ("sbi_swi", {"scoreboard_kind": "mask"}),
    "sbi_swi/sb_warp": ("sbi_swi", {"scoreboard_kind": "warp"}),
    "swi/sb_mask": ("swi", {"scoreboard_kind": "mask"}),
    "swi/sb_matrix": ("swi", {"scoreboard_kind": "matrix"}),
    "baseline/sb_mask": ("baseline", {"scoreboard_kind": "mask"}),
}


def golden_variants_text():
    """The bytes of ``tests/data/golden_variants.json`` — the one
    place the file may be regenerated from (``python
    tests/test_golden_variants.py`` rewrites it)."""
    cells = {}
    for workload in WORKLOADS:
        for tag, (policy, overrides) in VARIANTS.items():
            inst = get_workload(workload, "tiny")
            stats = simulate(
                inst.kernel, inst.memory, presets.by_name(policy, **overrides)
            )
            cells["%s/%s" % (workload, tag)] = stats.to_dict()
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


def test_variant_stats_match_golden_bytes():
    with open(GOLDEN_VARIANTS) as f:
        assert golden_variants_text() == f.read()


if __name__ == "__main__":
    with open(GOLDEN_VARIANTS, "w") as f:
        f.write(golden_variants_text())
