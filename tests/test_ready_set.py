"""The ready set against its oracle, and a deterministic work count.

The schedulers arbitrate over an incrementally maintained ready set
(:class:`repro.core.schedulers.SchedulerBase`): a warp's readiness is
re-derived only when a wake site touched it.  The invariant that rests
on is "every event that can change a verdict goes through
``TimingWarp.wake``/``wake_issue``/``wake_at``".  The oracle here is
the scan the ready set replaced — every live warp, every hot slot,
the readiness predicate — run before every pick of whole simulations:
a missed wake or sleep site fails on the warp and slot it concerns,
not as a golden diff three layers up.
"""

from unittest import mock

import pytest

from repro.core import presets
from repro.core.schedulers import CascadedScheduler, SBIScheduler, SchedulerBase
from repro.core.simulator import simulate
from repro.core.sm import StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.timing.units import Backend
from repro.workloads import get_workload


def _describe(cand):
    _, warp, slot, split, entry, _ = cand
    return "warp %d slot %d %r pc=%d fetched@%d" % (
        warp.wid, slot, split, entry.pc, entry.fetch_cycle
    )


def full_scan(sm, now):
    """The brute-force oracle: ``(pickable, suspended)`` candidates of
    every live warp by the readiness predicate, oldest first.

    Side-effect free where it matters: timed wakes the predicate
    would register are dropped, so the oracle cannot paper over a
    missing one.
    """
    sched = sm.scheduler
    slots = 2 if isinstance(sched, SBIScheduler) else 1
    pickable, suspended = [], []
    with mock.patch.object(TimingWarp, "wake_at", lambda self, cycle: None):
        for warp in sm.live_warps():
            hot = warp.model.hot_splits(now)
            for slot, split in enumerate(hot[:slots]):
                entry = sched._ready_entry(warp, slot, split, now)
                if entry is None:
                    continue
                cand = ((entry.fetch_cycle, warp.wid), warp, slot, split, entry, None)
                if slot == 1 and sched._sync_blocked(warp, split, entry.instr, now):
                    suspended.append(cand)
                else:
                    pickable.append(cand)
    pickable.sort(key=lambda c: (c[0], c[2]))
    return pickable, suspended


def _same(cand, oracle):
    return all(cand[i] is oracle[i] for i in (1, 3, 4)) and cand[2] == oracle[2]


def check_ready_set(sm, now):
    """The ready set, brought up to date, equals the full scan."""
    sched = sm.scheduler
    sched._refresh(now)
    pickable, suspended = full_scan(sm, now)
    by_pool = [[] for _ in sched._pools]
    for cand in pickable:
        by_pool[cand[1].wid % sched.pools].append(cand)
    for pool, expected in zip(sched._pools, by_pool):
        got = [_describe(c) for c in pool]
        want = [_describe(c) for c in expected]
        assert got == want, "cycle %d: ready set != full scan" % now
        assert all(_same(c, o) for c, o in zip(pool, expected))
    if isinstance(sched, SBIScheduler):
        assert sched._suspended == len(suspended), "cycle %d" % now
    return by_pool


def _oldest_with_free_unit(sm, expected, now, by):
    """The full-scan choice: oldest candidate whose unit is free."""
    for cand in expected:
        split, entry = cand[3], cand[4]
        if by == now:
            free = sm.backend.pick_group(
                entry.instr.op_class, now, split.lane_mask, False
            ) is not None
        else:  # the cascaded primary's "plausibly free at the issue stage"
            free = any(
                g.free_at <= by for g in sm.backend.candidates(entry.instr.op_class)
            )
        if free:
            return cand
    return None


def instrument(sm, counts):
    """Check the ready set before every pick of ``sm``'s scheduler."""
    sched = sm.scheduler
    if isinstance(sched, CascadedScheduler):
        inner = sched._pick_primary

        def pick_primary(now):
            (expected,) = check_ready_set(sm, now)
            got = inner(now)
            want = _oldest_with_free_unit(sm, expected, now, now + 1)
            assert (got is None) == (want is None), "cycle %d" % now
            assert got is None or _same(got, want), "cycle %d" % now
            counts["picks"] += 1
            counts["chosen"] += got is not None
            return got

        sched._pick_primary = pick_primary
    else:
        inner = sched._pick_oldest

        def pick_oldest(pool, now):
            by_pool = check_ready_set(sm, now)
            expected = by_pool[sched._pools.index(pool)]
            got = inner(pool, now)
            want = _oldest_with_free_unit(sm, expected, now, now)
            assert (got is None) == (want is None), "cycle %d" % now
            assert got is None or _same(got, want), "cycle %d" % now
            counts["picks"] += 1
            counts["chosen"] += got is not None
            return got

        sched._pick_oldest = pick_oldest


class TestReadySetInvariant:
    @pytest.mark.parametrize("workload,mode", [
        ("mandelbrot", "sbi_swi"),
        ("bfs", "sbi"),
        ("transpose", "baseline"),
    ])
    def test_ready_set_equals_full_scan_before_every_pick(self, workload, mode):
        config = presets.by_name(mode)
        inst = get_workload(workload, "tiny")
        expected = simulate(inst.kernel, inst.memory, config)
        inst = get_workload(workload, "tiny")
        sm = StreamingMultiprocessor(inst.kernel, inst.memory, config)
        counts = {"picks": 0, "chosen": 0}
        instrument(sm, counts)
        stats = sm.run()
        # The oracle only looked: the run is the uninstrumented run.
        assert stats == expected
        assert counts["chosen"] > 100 and counts["picks"] > counts["chosen"]

    def test_oracle_catches_a_missed_wake(self):
        """Drop the scoreboard-release wake site: the run must fail on
        the ready set, which is what makes the test above a test."""
        inst = get_workload("transpose", "tiny")
        sm = StreamingMultiprocessor(inst.kernel, inst.memory, presets.baseline())
        instrument(sm, {"picks": 0, "chosen": 0})
        with mock.patch.object(TimingWarp, "wake_issue", lambda self: None):
            with pytest.raises(AssertionError, match="ready set != full scan"):
                sm.run()


#: Calls per issued instruction on transpose@tiny, as measured on the
#: tree that introduced the ready set; the guard allows +10 %.  The
#: tree before it (full scan per scheduler per cycle) measured
#: ``_ready_entry`` 6.3 / 8.3 / 11.6 / 11.6 and ``pick_group``
#: 3.4 / 7.5 / 11.2 / 11.2 — each pin must stay below its parent.
#: "unit queries" counts ``pick_group`` and ``free_classes`` together.
WORK_PINS = {
    "baseline": (2.50, 2.04),
    "sbi": (1.95, 2.04),
    "swi": (2.51, 3.03),
    "sbi_swi": (2.51, 3.03),
}
PARENT_WORK = {
    "baseline": (6.3, 3.4),
    "sbi": (8.3, 7.5),
    "swi": (11.6, 11.2),
    "sbi_swi": (11.6, 11.2),
}


def work_per_issue(mode):
    """(readiness probes, unit queries) per issued instruction."""
    counts = {"ready": 0, "unit": 0}

    def counting(cls, name, key):
        inner = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return inner(self, *args, **kwargs)

        return mock.patch.object(cls, name, wrapper)

    inst = get_workload("transpose", "tiny")
    with counting(SchedulerBase, "_ready_entry", "ready"), counting(
        Backend, "pick_group", "unit"
    ), counting(Backend, "free_classes", "unit"):
        stats = simulate(inst.kernel, inst.memory, presets.by_name(mode))
    issues = stats.instructions_issued
    return counts["ready"] / issues, counts["unit"] / issues


class TestWorkCount:
    @pytest.mark.parametrize("mode", sorted(WORK_PINS))
    def test_probes_and_unit_queries_per_issue(self, mode):
        """Deterministic: the counts repeat exactly, so the ready set
        cannot rot back into a scan without a timing gate noticing."""
        ready, unit = work_per_issue(mode)
        pin_ready, pin_unit = WORK_PINS[mode]
        parent_ready, parent_unit = PARENT_WORK[mode]
        assert pin_ready < parent_ready and pin_unit < parent_unit
        assert ready <= pin_ready * 1.10, (ready, pin_ready)
        assert unit <= pin_unit * 1.10, (unit, pin_unit)


if __name__ == "__main__":
    for mode in sorted(WORK_PINS):
        print(mode, "%.2f %.2f" % work_per_issue(mode))
