"""Scheduler behaviour: pools, co-issue, SWI lookup, conflicts."""

import numpy as np
import pytest

from repro.analysis.pipeline_trace import trace_kernel
from repro.core import presets
from repro.core.simulator import simulate
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.timing.units import UNIT_OF


def _balanced_ifelse(work=6):
    """Balanced divergent kernel: SBI's favourite shape."""
    kb = KernelBuilder("bal")
    t, p, v, a = kb.regs("t", "p", "v", "a")
    kb.mov(t, kb.tid)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mov(v, 1.0)
    kb.and_(p, t, 1)
    kb.bra("odd", cond=p)
    for _ in range(work):
        kb.mad(v, v, 3, 1)
    kb.bra("join")
    kb.label("odd")
    for _ in range(work):
        kb.mad(v, v, 5, 2)
    kb.label("join")
    kb.mul(a, t, 4)
    kb.st(kb.param(0), v, index=a)
    kb.exit_()
    return kb


def _imbalanced(work=8):
    """Unbalanced per-thread trip counts: SWI's favourite shape."""
    kb = KernelBuilder("imb")
    t, p, v, c, a = kb.regs("t", "p", "v", "c", "a")
    kb.mov(t, kb.tid)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.and_(c, t, work - 1)
    kb.mov(v, 0.0)
    kb.label("loop")
    kb.mad(v, v, 3, 1)
    kb.sub(c, c, 1)
    kb.setp(p, CmpOp.GE, c, 0)
    kb.bra("loop", cond=p)
    kb.mul(a, t, 4)
    kb.st(kb.param(0), v, index=a)
    kb.exit_()
    return kb


def _run(kb, config, threads=1024):
    mem = MemoryImage()
    out = mem.alloc(threads * 4)
    kernel = kb.build(cta_size=256, grid_size=threads // 256, params=(out,))
    return simulate(kernel, mem, config)


class TestBaselinePools:
    def test_both_pools_issue(self):
        mem = MemoryImage()
        out = mem.alloc(1024 * 4)
        kernel = _balanced_ifelse().build(cta_size=256, grid_size=4, params=(out,))
        _, events = trace_kernel(kernel, mem, presets.baseline())
        wids = {e[1] for e in events}
        assert any(w % 2 == 0 for w in wids) and any(w % 2 == 1 for w in wids)

    def test_one_issue_per_pool_per_cycle(self):
        mem = MemoryImage()
        out = mem.alloc(1024 * 4)
        kernel = _balanced_ifelse().build(cta_size=256, grid_size=4, params=(out,))
        _, events = trace_kernel(kernel, mem, presets.baseline())
        per_cycle = {}
        for cycle, wid, _, _, _, _ in events:
            per_cycle.setdefault(cycle, []).append(wid % 2)
        for cycle, pools in per_cycle.items():
            assert len(pools) <= 2
            assert len([p for p in pools if p == 0]) <= 1
            assert len([p for p in pools if p == 1]) <= 1


class TestSBI:
    def test_co_issues_balanced_branches(self):
        stats = _run(_balanced_ifelse(), presets.sbi())
        assert stats.issued_sbi_secondary > 0

    def test_sbi_beats_warp64_on_balanced(self):
        sbi = _run(_balanced_ifelse(10), presets.sbi())
        w64 = _run(_balanced_ifelse(10), presets.warp64())
        assert sbi.ipc > w64.ipc * 1.1

    def test_co_issued_masks_disjoint(self):
        mem = MemoryImage()
        out = mem.alloc(1024 * 4)
        kernel = _balanced_ifelse().build(cta_size=256, grid_size=4, params=(out,))
        _, events = trace_kernel(kernel, mem, presets.sbi())
        by_cycle = {}
        for cycle, wid, pc, origin, mask, group in events:
            by_cycle.setdefault(cycle, []).append((wid, mask, origin))
        for cycle, issues in by_cycle.items():
            if len(issues) == 2:
                (w1, m1, o1), (w2, m2, o2) = issues
                assert w1 == w2  # SBI co-issues within one warp
                assert (m1 & m2) == 0

    def test_one_divergence_per_cycle(self):
        # Secondary branches are not co-issued after a diverging primary
        # branch; the structural restriction keeps the HCT sorter at one
        # new context per cycle (checked indirectly: runs complete).
        stats = _run(_imbalanced(), presets.sbi())
        assert stats.divergent_branches > 0


class TestSWI:
    def test_fills_lanes_from_other_warps(self):
        stats = _run(_imbalanced(), presets.swi())
        assert stats.issued_swi_secondary > 0
        assert stats.swi_hits > 0

    def test_conflicts_detected_and_survived(self):
        stats = _run(_imbalanced(), presets.swi())
        assert stats.scheduler_conflicts >= 0  # mechanism exercised
        assert stats.cycles > 0

    def test_direct_mapped_not_faster_than_full(self):
        full = _run(_imbalanced(), presets.swi())
        direct = _run(_imbalanced(), presets.swi(swi_ways=1))
        assert direct.swi_hits <= full.swi_hits

    def test_swi_beats_warp64_on_imbalance(self):
        swi = _run(_imbalanced(), presets.swi())
        w64 = _run(_imbalanced(), presets.warp64())
        assert swi.ipc > w64.ipc

    def test_lane_shuffle_changes_schedule_not_results(self):
        results = []
        for policy in ("identity", "xor_rev"):
            mem = MemoryImage()
            out = mem.alloc(1024 * 4)
            kernel = _imbalanced().build(cta_size=256, grid_size=4, params=(out,))
            simulate(kernel, mem, presets.swi(lane_shuffle=policy))
            results.append(mem.read_array(out, 1024))
        np.testing.assert_array_equal(results[0], results[1])


class TestCombined:
    def test_uses_both_secondary_kinds(self):
        stats = _run(_balanced_ifelse(), presets.sbi_swi())
        assert stats.issued_sbi_secondary + stats.issued_swi_secondary > 0

    def test_combined_at_least_matches_baseline(self):
        base = _run(_balanced_ifelse(10), presets.baseline())
        combo = _run(_balanced_ifelse(10), presets.sbi_swi())
        assert combo.ipc > base.ipc

    def test_peak_ipc_bound(self):
        for cfg in (presets.baseline(), presets.warp64(), presets.sbi_swi()):
            stats = _run(_balanced_ifelse(2), cfg)
            assert stats.ipc <= cfg.peak_ipc + 1e-9


def _sm(kb, config, cta_size=256, grid_size=4):
    """``(device, sm)``: the kernel on a one-SM device, the shape
    ``simulate`` runs."""
    from repro.core.gpu import GPUDevice
    from repro.timing.config import GPUConfig

    mem = MemoryImage()
    out = mem.alloc(cta_size * grid_size * 4)
    kernel = kb.build(cta_size=cta_size, grid_size=grid_size, params=(out,))
    device = GPUDevice(kernel, mem, GPUConfig(sm=config))
    return device, device.sms[0]


def _independent(count=8):
    """Straight-line code with no register dependences."""
    kb = KernelBuilder("indep")
    regs = kb.regs(*["r%d" % i for i in range(count)])
    for i, r in enumerate(regs):
        kb.mov(r, float(i))
    kb.exit_()
    return kb


class TestHooksStayHooks:
    """The stock ranking and its pseudo-random draw run in the pick's
    own frame; an override of either documented hook is still what
    runs, and the stock path draws exactly what the hook would."""

    def _with_scheduler(self, cls, monkeypatch, kb=None, policy="swi"):
        """``(device, sm)``: an SM of ``policy``'s machine, scheduled by ``cls``."""
        from repro.core import schedulers

        monkeypatch.setattr(schedulers, "make_scheduler", lambda config, sm: cls(sm))
        device, sm = _sm(kb or _imbalanced(), presets.by_name(policy))
        assert type(sm.scheduler) is cls
        return device, sm

    def test_stock_scheduler_never_calls_the_key_hook(self, monkeypatch):
        from repro.core.schedulers import CascadedScheduler

        monkeypatch.setattr(
            CascadedScheduler, "_secondary_key", lambda *a: pytest.fail("the hook ran")
        )
        device, sm = _sm(_imbalanced(), presets.swi())
        sm.scheduler._stock_key = True  # as it was before the patch above
        assert sm.scheduler._stock_key
        stats = device.run().sm_stats[0]
        assert stats.swi_hits > 0 and stats == _run(_imbalanced(), presets.swi())

    def test_inline_ranking_draws_what_the_hook_draws(self, monkeypatch):
        """Force the per-candidate hook path with an override that only
        defers to the stock key: same draws, same order, same run."""
        from repro.core.schedulers import CascadedScheduler

        calls = []

        class ThroughTheHook(CascadedScheduler):
            def _secondary_key(self, warp, split, entry):
                calls.append(warp.wid)
                return super()._secondary_key(warp, split, entry)

        for policy, kb in (("swi", _imbalanced()), ("sbi_swi", _balanced_ifelse())):
            del calls[:]
            device, sm = self._with_scheduler(ThroughTheHook, monkeypatch, kb, policy)
            assert not sm.scheduler._stock_key
            stats = device.run().sm_stats[0]
            assert len(calls) > 20
            assert stats == _run(kb, presets.by_name(policy))

    def test_overridden_key_is_what_ranks(self, monkeypatch):
        from repro.core.schedulers import GreedyCascadedScheduler

        seen = []

        class Spy(GreedyCascadedScheduler):
            def _secondary_key(self, warp, split, entry):
                key = super()._secondary_key(warp, split, entry)
                seen.append(key)
                return key

        device, sm = self._with_scheduler(Spy, monkeypatch, policy="swi_greedy")
        stats = device.run().sm_stats[0]
        assert seen and all(len(key) == 3 for key in seen)  # the greedy key
        assert stats == _run(_imbalanced(), presets.by_name("swi_greedy"))

    def test_overridden_primary_pick_is_what_picks(self, monkeypatch):
        from repro.core.schedulers import LooseRoundRobinScheduler

        picks = []

        class Spy(LooseRoundRobinScheduler):
            def _pick_primary(self, now):
                cand = super()._pick_primary(now)
                picks.append(cand)
                return cand

        device, sm = self._with_scheduler(Spy, monkeypatch, policy="swi_rr")
        stats = device.run().sm_stats[0]
        assert sum(cand is not None for cand in picks) > 100
        assert stats == _run(_imbalanced(), presets.by_name("swi_rr"))

    def test_the_example_scheduler_overrides_the_key(self):
        import importlib
        import sys

        from repro.core.policy import POLICIES, SCHEDULERS

        example = importlib.import_module("examples.custom_microarchitecture")
        try:
            device, sm = _sm(_imbalanced(), presets.by_name("swi_fresh"))
            assert type(sm.scheduler) is example.FreshestFirstScheduler
            assert not sm.scheduler._stock_key
            assert device.run().sm_stats[0].swi_hits > 0
        finally:
            SCHEDULERS.unregister("cascaded_freshest")
            POLICIES.unregister("swi_fresh")
            del sys.modules["examples.custom_microarchitecture"]


class TestNoDoomedProbes:
    """Which wakes queue a readiness probe, and which verdicts are
    known without one: an all-empty buffer, a candidate the pick
    consumed, a fill the scoreboard refuses (the release re-checks the
    scoreboard alone) or accepts (the fill is the candidate)."""

    def _probes(self, sm, monkeypatch):
        from repro.core.schedulers import SchedulerBase

        probed = []
        inner = SchedulerBase._ready_entry

        def ready_entry(self, warp, slot, split, now):
            entry = inner(self, warp, slot, split, now)
            probed.append((now, warp.wid, slot, entry is not None))
            return entry

        monkeypatch.setattr(SchedulerBase, "_ready_entry", ready_entry)
        return probed

    def test_launch_and_issue_on_one_way_wake_fetch_only(self, monkeypatch):
        device, sm = _sm(_independent(), presets.baseline(), cta_size=64, grid_size=1)
        probed = self._probes(sm, monkeypatch)
        device._initial_launch()
        # Launched with empty buffers: fetch has work, the pools do not.
        assert not any(sm.scheduler.woken) and len(sm.fetch.woken) == 2
        assert sm.step(0) and sm.stats.instructions_issued == 0
        # The fills are the verdicts: candidates (ready from cycle 1)
        # without a probe or a wake.
        issued = [sm.warp_slots[0], sm.warp_slots[1]]
        assert [c[3] for pool in sm.scheduler._pools for c in pool] == issued
        assert not any(sm.scheduler.woken) and not probed
        # Cycle 1: both issue; the issue empties their one way, so
        # nothing queues them again before their next fill.
        assert sm.scheduler.tick(1) == 2
        assert all(w.cand0 is None and w.ibuf == [None] for w in issued)
        assert not any(sm.scheduler.woken) and not any(sm.scheduler._pools)
        assert all(w in sm.fetch.woken for w in issued)
        sm.fetch.tick(1, sm.live_warps())
        assert [c[3] for pool in sm.scheduler._pools for c in pool] == issued
        assert sm.scheduler.tick(2) == 2 and not probed

    def test_wake_with_a_candidate_on_record_still_probes(self):
        """The fallback: a scheduler that did not drop what it issued
        gets the ordinary wake, and the probe removes the candidate."""
        device, sm = _sm(_independent(), presets.baseline())
        device._initial_launch()
        sm.step(0)
        sm.scheduler._refresh(1, 0)
        warp = sm.warp_slots[0]
        cand = warp.cand0
        assert cand is not None and sm.scheduler._pools[0] == [cand]
        group = sm.backend.pick_group(UNIT_OF[cand[5].instr.op_class], 1, cand[4].lane_mask, False)
        sm.issue(warp, 0, cand[4], cand[5], 1, "primary", group)  # no drop
        assert warp.ibuf == [None] and warp in sm.scheduler.woken[0]
        sm.scheduler._refresh(1, 0)
        assert warp.cand0 is None and sm.scheduler._pools[0] == []

    def test_two_way_warp_is_ready_the_cycle_its_other_way_matches(self):
        """SBI's buffers are PC-tagged: when CPC1 advances onto the PC
        the other way already holds, the warp is a candidate again the
        same cycle.  The empty-buffer shortcut must not swallow that."""
        from repro.timing.fetch import IBufEntry

        device, sm = _sm(_independent(), presets.sbi_swi())
        device._initial_launch()
        sm.step(0)
        sm.scheduler._refresh(1)
        warp = sm.warp_slots[0]
        cand = warp.cand0
        split, entry = cand[4], cand[5]
        assert entry.pc == 0 and len(warp.ibuf) == 2
        program = sm.kernel.program.instructions
        ahead = warp.ibuf[1] = IBufEntry(1, program[1], 0)
        sm.scheduler._pools[0].remove(cand)
        warp.cand0 = None  # as the pick that issues it does
        group = sm.backend.pick_group(UNIT_OF[entry.instr.op_class], 1, split.lane_mask, False)
        sm.issue(warp, 0, split, entry, 1, "primary", group)
        assert warp.ibuf == [None, ahead] and warp in sm.scheduler.woken[0]
        sm.scheduler._refresh(1)
        assert warp.cand0 is not None and warp.cand0[5] is ahead
        # ... whereas with both ways empty there is nothing to ask about.
        other = sm.warp_slots[1]
        cand = other.cand0
        sm.scheduler._pools[0].remove(cand)
        other.cand0 = None
        group = sm.backend.pick_group(UNIT_OF[cand[5].instr.op_class], 2, cand[4].lane_mask, False)
        sm.issue(other, 0, cand[4], cand[5], 2, "primary", group)
        assert other.ibuf == [None, None] and other not in sm.scheduler.woken[0]

    @pytest.mark.parametrize("mode", ["baseline", "sbi", "swi", "sbi_swi"])
    def test_a_fill_the_scoreboard_refuses_waits_for_the_release(self, mode, monkeypatch):
        """No instruction of the dependent chain is probed: each fill is
        refused (the refusal is kept), the release it waited for
        re-checks the scoreboard alone and records the candidate — not
        a probe on the fill (no) and another on the release (yes)."""
        from repro.core.warp import TimingWarp
        from repro.timing.scoreboard import ScoreboardBase

        kb = KernelBuilder("chain")
        (v,) = kb.regs("v")
        kb.mov(v, 1.0)
        for _ in range(8):
            kb.mad(v, v, 3, 1)  # each reads the one before
        kb.exit_()
        config = presets.by_name(mode)
        device, sm = _sm(kb, config, cta_size=config.warp_width, grid_size=1)  # one warp
        probed = self._probes(sm, monkeypatch)
        recorded, refused = [], []
        ready, refuse = TimingWarp.ready, ScoreboardBase.refused

        def spy_ready(warp, split, entry):
            recorded.append(entry.pc)
            ready(warp, split, entry)

        def spy_refused(board, slot, split, entry, version):
            refused.append((slot, entry.pc))
            refuse(board, slot, split, entry, version)

        monkeypatch.setattr(TimingWarp, "ready", spy_ready)
        monkeypatch.setattr(ScoreboardBase, "refused", spy_refused)
        stats = device.run().sm_stats[0]
        assert stats.instructions_issued == 10
        assert not probed
        assert refused == [(0, pc) for pc in range(1, 9)]  # each mad, on its fill
        assert recorded == list(range(10))  # its release, else its fill
        # One in-flight write at a time, each release wakes its reader.
        assert stats.cycles > 8 * config.issue_to_writeback


def two_walk_pick(sched, now, primary, unit, taken, diverged, counts):
    """The cascaded pick as two walks, the way the tree before the
    one-walk ``CascadedScheduler._pick`` made it: the stock
    ``_pick_primary`` (its own ``free_classes(now + 1)`` snapshot and
    walk), then ``_pick_secondary`` (the same warp's CPC2 probed anew,
    else its own ``free_classes(now)`` snapshot and walk, ``pick_group``
    asked per busy-class candidate, a key call and a pseudo-random draw
    per eligible one in warp-id order).

    Returns ``(next primary, secondary, SWI lookups, sync
    suspensions)``; the draws are left in ``sched._rand_state``."""
    backend = sched.sm.backend
    pool = sched._pools[0]
    nxt = None
    if pool:
        soon = backend.free_classes(now + 1)
        nxt = next((cand for cand in pool if soon[cand[6]]), None)
    suspensions = 0
    if primary is not None and sched._uses_sbi:
        hot = primary.model.hot_splits(now)
        if len(hot) > 1:
            split = hot[1]
            entry = sched._ready_entry(primary, 1, split, now)
            if entry is not None:
                instr = entry.instr
                if sched._sync_blocked(primary, split, instr, now):
                    suspensions = 1
                elif not (instr.is_branch and diverged):
                    group = backend.pick_group(UNIT_OF[instr.op_class], now, split.lane_mask, True)
                    if group is not None:
                        return nxt, ("sbi", primary, 1, split, entry, group), 0, 0
    lookups = int(primary is not None)
    window = None
    if primary is not None and sched.config.swi_ways is not None:
        count = sched.config.warp_count
        window = {(primary.wid + 1 + i) % count for i in range(sched.config.swi_ways)}
    eligible = []
    for cand in pool:
        warp, lanes, op_class = cand[3], cand[4].lane_mask, cand[5].instr.op_class
        if warp is primary or (window is not None and warp.wid not in window):
            continue
        if backend.pick_group(UNIT_OF[op_class], now, lanes, False) is None:
            counts["busy"] += primary is not None
            if primary is None or lanes & taken:
                continue
            if backend.pick_group(UNIT_OF[op_class], now, lanes, True) is None:
                continue
        eligible.append((warp.wid, cand))
    if not eligible:
        return nxt, None, lookups, suspensions
    best = best_key = None
    for _, cand in sorted(eligible):
        key = sched._secondary_key(cand[3], cand[4], cand[5])
        if best_key is None or key > best_key:
            best, best_key = cand, key
    split, entry = best[4], best[5]
    group = backend.pick_group(UNIT_OF[entry.instr.op_class], now, split.lane_mask, True)
    origin = "swi" if primary is not None else "primary"
    return nxt, (origin, best[3], 0, split, entry, group), lookups, suspensions


class TestSecondaryPickOracle:
    """The one-walk cascaded pick against :func:`two_walk_pick`, run
    before every pick of whole simulations: the same next primary, the
    same secondary (origin, warp, slot, split, entry, group), the same
    pseudo-random draws and the same lookup and suspension counts."""

    @pytest.mark.parametrize("policy,overrides", [
        ("swi", {}),
        ("swi", {"swi_ways": 2}),
        ("sbi_swi", {}),
        ("swi_greedy", {}),
    ])
    def test_same_pick_same_draws(self, policy, overrides):
        from unittest import mock

        from repro.core.gpu import GPUDevice
        from repro.core.warp import TimingWarp
        from repro.timing.config import GPUConfig
        from repro.workloads import get_workload

        counts = {"picks": 0, "busy": 0, "sbi": 0}
        config = presets.by_name(policy, **overrides)
        for workload in ("eigenvalues", "matrixmul"):
            inst = get_workload(workload, "tiny")
            expected = simulate(inst.kernel, inst.memory, config)
            inst = get_workload(workload, "tiny")
            device = GPUDevice(inst.kernel, inst.memory, GPUConfig(sm=config))
            (sm,) = device.sms
            sched, stats = sm.scheduler, sm.stats
            inner = sched._pick

            def pick(now, primary, unit, taken, diverged):
                # The oracle only looks: no timed wake, no kept refusal,
                # no draw survives it.
                state = sched._rand_state
                board = primary.scoreboard if primary is not None else None
                awaited = board.awaited if board is not None else None
                with mock.patch.object(TimingWarp, "wake_at", lambda self, cycle: None):
                    want = two_walk_pick(sched, now, primary, unit, taken, diverged, counts)
                drawn, sched._rand_state = sched._rand_state, state
                if board is not None:
                    board.awaited = awaited
                before = stats.swi_lookups, stats.sync_suspensions
                got = inner(now, primary, unit, taken, diverged)
                assert got[0] is want[0], "cycle %d: next primary" % now
                assert (got[1] is None) == (want[1] is None), "cycle %d" % now
                if got[1] is not None:
                    assert got[1][0] == want[1][0] and got[1][2] == want[1][2]
                    assert all(got[1][i] is want[1][i] for i in (1, 3, 4, 5)), now
                    counts["picks"] += 1
                    counts["sbi"] += got[1][0] == "sbi"
                assert sched._rand_state == drawn, "cycle %d" % now
                assert (stats.swi_lookups - before[0], stats.sync_suspensions - before[1]) == (
                    want[2], want[3]
                ), "cycle %d" % now
                return got

            sched._pick = pick
            assert device.run().sm_stats[0] == expected
        # Busy-class candidates beside a primary are where the class-and-
        # lanes test stands in for ``pick_group``: they must have come up.
        assert counts["picks"] > 300 and counts["busy"] > 300, counts
        assert counts["sbi"] > 0 or policy != "sbi_swi", counts
