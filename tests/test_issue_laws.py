"""Conservation laws of the issue stage, checked on every issue of whole
simulations (the first slice of the ``invariants`` observer the ROADMAP
asks for).

Per SM per cycle:

* the lane masks issued into one execution group are pairwise disjoint
  (co-issue shares a group only on disjoint lanes);
* the active threads issued add up to at most ``config.peak_ipc``.

``StreamingMultiprocessor.issue`` is wrapped — the only place an
instruction issues — so the laws hold whichever scheduler picked it.

The second law does not hold for the SWI family (two warps' full
64-thread instructions in one cycle: a MAD-group op beside an LSU one,
128 threads against ``peak_ipc`` 104, the LSU taking its 64 threads
as serial transactions) on the tree that introduced these checks
either: those cases are strict xfails, named in ROADMAP item 3, until
a golden-moving PR decides what the law or the model should say.
"""

import collections
import functools
from unittest import mock

import pytest

from repro.core import presets
from repro.core.gpu import simulate_device
from repro.core.policy import POLICIES
from repro.core.simulator import simulate
from repro.core.sm import StreamingMultiprocessor
from repro.workloads import get_workload

WORKLOADS = ("transpose", "mandelbrot", "matrixmul", "bfs", "eigenvalues")
#: The 4-SM ``sbi_swi`` device row, transpose @tiny.
DEVICE = ("device", "transpose")
RUNS = [(policy, workload) for policy in POLICIES.names() for workload in WORKLOADS]
OVER_PEAK = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="SWI issues a 64-thread MAD and a 64-thread LSU op in one "
    "cycle: 128 threads > peak_ipc 104 (ROADMAP item 3)",
)
SWI_FAMILY = ("swi", "sbi_swi", "swi_greedy", "swi_rr", "dwr")


@functools.lru_cache(maxsize=None)
def _laws(policy, workload):
    """``(lane overlaps, cycles over peak, groups issued into)`` of one
    checked run — a run the checks only looked at."""
    overlaps, over_peak = [], []
    lanes = collections.defaultdict(int)  # (sm, cycle, group) -> lanes so far
    threads = collections.Counter()  # (sm, cycle) -> active threads
    inner = StreamingMultiprocessor.issue

    def issue(self, warp, slot, split, entry, now, origin, group):
        before = self.stats.thread_instructions
        where = (self.sm_id, now, group.name)
        if lanes[where] & split.lane_mask:
            overlaps.append(where)
        lanes[where] |= split.lane_mask
        diverged = inner(self, warp, slot, split, entry, now, origin, group)
        threads[self.sm_id, now] += self.stats.thread_instructions - before
        if threads[self.sm_id, now] > self.config.peak_ipc:
            over_peak.append((self.sm_id, now, threads[self.sm_id, now]))
        return diverged

    if policy == DEVICE[0]:
        config = presets.device("sbi_swi", sm_count=4)
        run = simulate_device
    else:
        config = presets.by_name(policy)
        run = simulate
    inst = get_workload(workload, "tiny")
    expected = run(inst.kernel, inst.memory, config)
    inst = get_workload(workload, "tiny")
    with mock.patch.object(StreamingMultiprocessor, "issue", issue):
        stats = run(inst.kernel, inst.memory, config)
    assert stats == expected
    return overlaps, over_peak, len(lanes)


@pytest.mark.parametrize("policy,workload", RUNS + [DEVICE])
def test_co_issued_lane_masks_are_disjoint(policy, workload):
    overlaps, _, groups = _laws(policy, workload)
    assert groups > 0 and not overlaps, overlaps[:3]


@pytest.mark.parametrize("policy,workload", [
    pytest.param(*run, marks=[OVER_PEAK] if run[0] in SWI_FAMILY and run[1] in (
        "transpose", "matrixmul", "eigenvalues"
    ) else [])
    for run in RUNS
] + [pytest.param(*DEVICE, marks=[OVER_PEAK])])
def test_issued_threads_stay_within_peak_ipc(policy, workload):
    _, over_peak, _ = _laws(policy, workload)
    assert not over_peak, "(SM, cycle, threads): %s" % over_peak[:3]
