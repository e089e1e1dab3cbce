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

import collections
import dataclasses
import sys
from unittest import mock

import pytest

from repro.core import presets
from repro.core.schedulers import CascadedScheduler, SBIScheduler
from repro.core.simulator import simulate
from repro.core.sm import StreamingMultiprocessor
from repro.core.warp import TimingWarp
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


def check_ready_set(sm, now, index=0):
    """Pool ``index`` of the ready set, brought up to date the way a
    pick of it does, equals the full scan's share of that pool."""
    sched = sm.scheduler
    sched._refresh(now, index)
    pickable, suspended = full_scan(sm, now)
    expected = [c for c in pickable if c[1].wid % sched.pools == index]
    pool = sched._pools[index]
    got = [_describe(c) for c in pool]
    want = [_describe(c) for c in expected]
    assert got == want, "cycle %d: ready set != full scan" % now
    assert all(_same(c, o) for c, o in zip(pool, expected))
    if isinstance(sched, SBIScheduler):
        assert sched._suspended == len(suspended), "cycle %d" % now
    return expected


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
            expected = check_ready_set(sm, now)
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

        def pick_oldest(index, now):
            expected = check_ready_set(sm, now, index)
            got = inner(index, now)
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


#: Interpreter call events (``sys.setprofile`` ``call`` + ``c_call``)
#: per issued instruction over transpose, mandelbrot and matrixmul
#: @tiny: what one issue costs the host in frames and C calls, the
#: gauge that steered the one-frame issue path.  ``CALL_PINS`` are the
#: counts of the tree that introduced the gauge (the guard allows
#: +5 %), ``PARENT_CALLS`` what :func:`calls_per_issue` read on the
#: tree before it — each pin must stay below its parent.
CALL_PINS = {
    "baseline": 56.0,
    "sbi": 73.1,
    "swi": 76.3,
    "sbi_swi": 81.2,
}
PARENT_CALLS = {
    "baseline": 85.3,
    "sbi": 124.8,
    "swi": 114.4,
    "sbi_swi": 137.5,
}
GAUGE_WORKLOADS = ("transpose", "mandelbrot", "matrixmul")


def count_calls(kernel, memory, config):
    """``(stats, call events, Python calls by function name)`` of one
    simulation."""
    by_name = collections.Counter()
    c_calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            by_name[frame.f_code.co_name] += 1
        elif event == "c_call":
            c_calls[0] += 1

    sys.setprofile(profile)
    try:
        stats = simulate(kernel, memory, config)
    finally:
        sys.setprofile(None)
    return stats, sum(by_name.values()) + c_calls[0], by_name


def work_per_issue(mode):
    """(readiness probes, unit queries) per issued instruction."""
    inst = get_workload("transpose", "tiny")
    stats, _, by_name = count_calls(inst.kernel, inst.memory, presets.by_name(mode))
    issues = stats.instructions_issued
    unit = by_name["pick_group"] + by_name["free_classes"]
    return by_name["_ready_entry"] / issues, unit / issues


def calls_per_issue(mode):
    """Call events per issued instruction, summed over the gauge
    workloads; each is counted on the second of two identical runs
    (the first warms the module-level mask memos)."""
    config = presets.by_name(mode)
    calls = issues = 0
    for name in GAUGE_WORKLOADS:
        for _ in range(2):
            inst = get_workload(name, "tiny")
            stats, events, _ = count_calls(inst.kernel, inst.memory, config)
        calls += events
        issues += stats.instructions_issued
    return calls / issues


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

    @pytest.mark.parametrize("mode", sorted(CALL_PINS))
    def test_calls_per_issue(self, mode):
        """Deterministic too: an issue's cost in interpreter calls
        cannot creep back up without a timing run to say so."""
        pin, parent = CALL_PINS[mode], PARENT_CALLS[mode]
        assert pin <= 0.85 * parent
        calls = calls_per_issue(mode)
        assert calls <= pin * 1.05, (calls, pin)

    def test_work_per_issue_is_flat_in_live_warps(self):
        """transpose@bench under sbi_swi with 4 to 24 warps on the SM:
        "linear in live warps per cycle" was the defect the ready set
        removed, and per-issue work that grows with occupancy is how
        it would come back."""
        ready, calls = {}, {}
        for warps in (4, 8, 16, 24):
            config = dataclasses.replace(presets.sbi_swi(), warp_count=warps)
            inst = get_workload("transpose", "bench")
            stats, events, by_name = count_calls(inst.kernel, inst.memory, config)
            ready[warps] = by_name["_ready_entry"] / stats.instructions_issued
            calls[warps] = events / stats.instructions_issued
        assert ready[24] <= 1.3 * ready[4], ready
        assert calls[24] <= 1.3 * calls[4], calls


class TestSlotView:
    """The two things ``SM.issue`` no longer asks the divergence model
    per instruction: the context slot (the scheduler hands it over) and
    the slot masks (cached on the warp against ``slot_version``)."""

    @pytest.mark.parametrize("workload,mode", [
        ("tmd2", "sbi_swi"),
        ("mandelbrot", "sbi"),
    ])
    def test_issue_sees_what_the_model_would_say(self, workload, mode):
        config = presets.by_name(mode)
        inst = get_workload(workload, "tiny")
        expected = simulate(inst.kernel, inst.memory, config)
        inst = get_workload(workload, "tiny")
        sm = StreamingMultiprocessor(inst.kernel, inst.memory, config)
        inner = StreamingMultiprocessor.issue
        checked = {"slots": set(), "cached": 0}

        def issue(self, warp, slot, split, entry, now, origin, group):
            model = warp.model
            assert slot == model.slot_of(split, now), "cycle %d" % now
            checked["slots"].add(slot)
            if warp.slots_seen == model.slot_version:
                assert warp.slot_masks == model.slot_masks(now), "cycle %d" % now
                checked["cached"] += 1
            return inner(self, warp, slot, split, entry, now, origin, group)

        with mock.patch.object(StreamingMultiprocessor, "issue", issue):
            stats = sm.run()
        # The checks only looked: the run is the unchecked run.
        assert stats == expected
        assert checked["slots"] >= {0, 1} and checked["cached"] > 100


if __name__ == "__main__":
    print("| mode | probes/issue | unit queries/issue | calls/issue | parent calls/issue |")
    print("| --- | ---: | ---: | ---: | ---: |")
    for mode in sorted(WORK_PINS):
        print("| %s | %.2f | %.2f | %.1f | %.1f |" % (
            (mode,) + work_per_issue(mode) + (calls_per_issue(mode), PARENT_CALLS[mode])
        ))
