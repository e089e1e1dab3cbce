"""Execution groups (co-issue rules) and the tagged fetch pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Instruction, Op, OpClass, imm
from repro.core import presets
from repro.timing.masks import full_mask
from repro.timing.units import UNIT_OF, Backend, ExecGroup


def launched_sm(kernel, memory, config):
    """The one SM of a one-SM device, its CTAs launched, to be stepped
    by hand."""
    from repro.core.gpu import GPUDevice
    from repro.timing.config import GPUConfig

    device = GPUDevice(kernel, memory, GPUConfig(sm=config))
    device._initial_launch()
    return device.sms[0]


SFU, MAD = OpClass.SFU, OpClass.MAD


class TestExecGroup:
    """Booking (``ExecGroup.accept``) against the availability query
    (``Backend.pick_group``) on the 64-wide machine: one full-width
    MAD group, one 8-wide SFU group."""

    def make(self):
        return Backend(presets.sbi())

    def test_accept_and_busy(self):
        b = self.make()
        waves = b.sfu.accept(0, full_mask(64))
        assert waves == 8
        assert b.pick_group(UNIT_OF[SFU], 1, full_mask(64), co_issue=False) is None
        assert b.pick_group(UNIT_OF[SFU], 8, full_mask(64), co_issue=False) is b.sfu

    def test_co_issue_disjoint(self):
        b = self.make()
        g = b.pick_group(UNIT_OF[MAD], 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        assert b.pick_group(UNIT_OF[MAD], 0, 0xF0, co_issue=True) is g
        assert b.pick_group(UNIT_OF[MAD], 0, 0x0C, co_issue=True) is None
        assert b.pick_group(UNIT_OF[MAD], 0, 0xF0, co_issue=False) is None

    def test_at_most_two_per_cycle(self):
        b = self.make()
        g = b.pick_group(UNIT_OF[MAD], 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        g.accept(0, 0xF0)
        assert b.pick_group(UNIT_OF[MAD], 0, 0xF00, co_issue=True) is None
        with pytest.raises(RuntimeError):
            g.accept(0, 0xF00)

    def test_overlap_accept_raises(self):
        g = self.make().sfu
        g.accept(0, 0x0F)
        with pytest.raises(RuntimeError):
            g.accept(0, 0x0C)

    def test_union_occupancy(self):
        g = ExecGroup("G", MAD, 32, 64)
        g.accept(0, full_mask(32))          # low half: 1 wave
        g.accept(0, full_mask(32) << 32)    # high half too: union = 2 waves
        assert g.free_at == 2

    def test_new_cycle_resets_co_issue_state(self):
        b = self.make()
        g = b.pick_group(UNIT_OF[MAD], 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        assert b.pick_group(UNIT_OF[MAD], 1, 0x0F, co_issue=False) is g

    def test_hold_extends(self):
        g = self.make().lsu
        g.accept(0, 1)
        g.hold(10)
        assert g.free_at == 10


class TestBackend:
    def test_baseline_has_two_mad_groups(self):
        b = Backend(presets.baseline())
        mads = [g for g in b.groups if g.kind is OpClass.MAD]
        assert len(mads) == 2 and all(g.width == 32 for g in mads)

    def test_wide_has_single_mad_group(self):
        b = Backend(presets.sbi())
        mads = [g for g in b.groups if g.kind is OpClass.MAD]
        assert len(mads) == 1 and mads[0].width == 64

    def test_ctrl_rides_mad(self):
        b = Backend(presets.baseline())
        assert all(g.kind is OpClass.MAD for g in b.routes[UNIT_OF[OpClass.CTRL]])

    def test_pick_prefers_free_group(self):
        b = Backend(presets.baseline())
        g1 = b.pick_group(UNIT_OF[OpClass.MAD], 0, full_mask(32), co_issue=False)
        g1.accept(0, full_mask(32))
        g2 = b.pick_group(UNIT_OF[OpClass.MAD], 0, full_mask(32), co_issue=False)
        assert g2 is not None and g2 is not g1

    def test_pick_none_when_saturated(self):
        b = Backend(presets.sbi())
        mad = b.pick_group(UNIT_OF[OpClass.MAD], 0, full_mask(64), co_issue=False)
        mad.accept(0, full_mask(64))
        assert b.pick_group(UNIT_OF[OpClass.MAD], 0, full_mask(64), co_issue=True) is None

    def test_next_free_cycle(self):
        b = Backend(presets.sbi())
        assert b.next_free_cycle(0) is None
        b.sfu.accept(0, full_mask(64))  # 8 waves on the 8-wide SFU
        assert b.next_free_cycle(0) == 8
        b.lsu.accept(0, 1)
        b.lsu.hold(5)
        assert b.next_free_cycle(0) == 5 and b.next_free_cycle(5) == 8
        assert b.next_free_cycle(8) is None


#: One op class per route (``free_classes`` index).
CLASSES = (OpClass.MAD, OpClass.SFU, OpClass.LSU)


class TestUnitSnapshot:
    """``Backend.free_classes`` answers per class, once, what
    ``pick_group`` answers per candidate — and names the group."""

    @pytest.mark.parametrize("mode", ["baseline", "sbi"])
    @given(
        busy=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        first=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(1, 2**32 - 1))),
        lanes=st.integers(1, 2**32 - 1),
        now=st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_snapshot_agrees_with_pick_group(self, mode, busy, first, lanes, now):
        b = Backend(presets.by_name(mode))
        for group, until in zip(b.groups, busy):
            group.free_at = until  # still draining an earlier instruction
        if first is not None:
            # This cycle's first instruction, booked where pick_group says.
            group = b.pick_group(UNIT_OF[CLASSES[first[0]]], now, first[1], False)
            if group is not None:
                group.accept(now, first[1])
        free = b.free_classes(now)
        for unit, op_class in enumerate(CLASSES):
            assert free[unit] is b.pick_group(UNIT_OF[op_class], now, lanes, False)
            if free[unit] is not None:  # a group to itself before sharing
                assert b.pick_group(UNIT_OF[op_class], now, lanes, True) is free[unit]
        # CTRL rides the MAD groups.
        assert free[0] is b.pick_group(UNIT_OF[OpClass.CTRL], now, lanes, False)

    def test_by_next_cycle_is_the_plausibly_free_query(self):
        b = Backend(presets.swi())
        mad = b.pick_group(UNIT_OF[MAD], 0, full_mask(64), co_issue=False)
        mad.accept(0, full_mask(64))
        b.sfu.accept(0, 0x0F)  # one wave of the 8-wide SFU
        assert b.free_classes(0) == (None, None, b.lsu)
        assert b.free_classes(1) == (mad, b.sfu, b.lsu)

    def test_stale_co_issue_bookkeeping_does_not_hide_a_free_group(self):
        """``pick_group`` no longer rolls the per-cycle bookkeeping: a
        group free by now took nothing this cycle, whatever it says."""
        b = Backend(presets.swi())
        mad = b.pick_group(UNIT_OF[MAD], 0, 0x0F, co_issue=False)
        mad.accept(0, 0x0F)
        mad.accept(0, 0xF0)
        assert (mad.cycle, mad.issue_count) == (0, 2)
        assert b.pick_group(UNIT_OF[MAD], 0, 0xF00, co_issue=True) is None
        assert b.pick_group(UNIT_OF[MAD], 1, 0x0F, co_issue=True) is mad  # stale count of 2
        assert mad.accept(1, 0x0F) == 1 and mad.issue_count == 1


class TestFetchEngine:
    def _setup(self, mode="baseline"):
        from repro.functional.memory import MemoryImage
        from repro.isa.builder import KernelBuilder

        kb = KernelBuilder("f")
        v, a = kb.regs("v", "a")
        for _ in range(6):
            kb.add(v, v, 1)
        kb.mul(a, kb.tid, 4)
        kb.st(kb.param(0), v, index=a)
        kb.exit_()
        mem = MemoryImage()
        out = mem.alloc(4096)
        cfg = presets.by_name(mode)
        kernel = kb.build(cta_size=cfg.warp_width, grid_size=4, params=(out,))
        return launched_sm(kernel, mem, cfg)

    def test_fetch_bandwidth_limit(self):
        sm = self._setup()
        fetched = sm.fetch.tick(0, sm.live_warps())
        assert fetched == sm.config.fetch_width

    @staticmethod
    def _entry_for(sm, warp, split, now):
        """The decoded buffer entry the readiness predicate serves
        ``split`` at ``now`` (tag match on its PC), if any."""
        return sm.scheduler._ready_entry(warp, 0, split, now)

    def test_decode_delay(self):
        sm = self._setup()
        sm.fetch.tick(0, sm.live_warps())
        warp = sm.live_warps()[0]
        split = warp.model.hot_splits(0)[0]
        assert self._entry_for(sm, warp, split, 0) is None
        assert self._entry_for(sm, warp, split, 1) is not None

    def test_consume_clears_entry(self):
        """Issuing an instruction consumes its buffer entry."""
        sm = self._setup()
        sm.fetch.tick(0, sm.live_warps())
        warp = sm.live_warps()[0]
        split = warp.model.hot_splits(0)[0]
        entry = self._entry_for(sm, warp, split, 1)
        group = sm.backend.pick_group(UNIT_OF[entry.instr.op_class], 1, split.lane_mask, False)
        sm.issue(warp, 0, split, entry, 1, "primary", group)
        assert warp.ibuf == [None]
        assert split.pc == 1 and self._entry_for(sm, warp, split, 1) is None

    def test_stale_tag_not_served(self):
        sm = self._setup()
        sm.fetch.tick(0, sm.live_warps())
        warp = sm.live_warps()[0]
        split = warp.model.hot_splits(0)[0]
        split.pc = 3  # redirect
        assert self._entry_for(sm, warp, split, 1) is None

    def test_round_robin_covers_all_warps(self):
        sm = self._setup()
        live = sm.live_warps()
        for cycle in range(2 * len(live)):
            sm.fetch.tick(cycle, live)
        served = {
            wid
            for wid, ways in ((w.wid, w.ibuf) for w in live)
            if any(e is not None for e in ways)
        }
        assert len(served) == len(live)

    def test_redirect_gates_fetch(self):
        sm = self._setup()
        warp = sm.live_warps()[0]
        split = warp.model.hot_splits(0)[0]
        split.redirect_ready_at = 100
        sm.fetch.tick(0, [warp])
        assert warp.ibuf == [None]


class TestFetchServiceOrder:
    """Who a contended fetch tick serves is architectural (the pointer
    advances once per stepped cycle); who an uncontended one serves
    first is not, and it no longer sorts to find out."""

    def _setup(self, warps=8, mode="baseline"):
        from repro.functional.memory import MemoryImage
        from repro.isa.builder import KernelBuilder

        kb = KernelBuilder("f")
        (v,) = kb.regs("v")
        for _ in range(6):
            kb.add(v, v, 1)
        kb.exit_()
        cfg = presets.by_name(mode)
        kernel = kb.build(cta_size=cfg.warp_width, grid_size=warps)
        return launched_sm(kernel, MemoryImage(), cfg)

    @staticmethod
    def _served(sm, cycle):
        return sorted(
            wid
            for wid, ways in ((w.wid, w.ibuf) for w in sm.live_warps())
            for e in ways
            if e is not None and e.fetch_cycle == cycle
        )

    @staticmethod
    def _rotation(woken_wids, pointer_wid, width):
        """The service order as specified: warp ids ascending from the
        pointer's warp, wrapping; the first ``width`` are served."""
        order = sorted(w for w in woken_wids if w >= pointer_wid)
        order += sorted(w for w in woken_wids if w < pointer_wid)
        return sorted(order[:width])

    def test_contended_ticks_serve_the_rotation(self):
        sm = self._setup(warps=8)
        live = sm.live_warps()
        fetch = sm.fetch
        fetch._rr = 5  # as after five stepped cycles
        waiting = set(range(8))
        served_in_order = []
        for cycle in range(4):
            pointer = live[fetch._rr % len(live)].wid
            want = self._rotation(waiting, pointer, fetch.fetch_width)
            assert fetch.tick(cycle, live) == 2
            assert self._served(sm, cycle) == want
            served_in_order.append(want)
            waiting -= set(want)
        assert served_in_order == [[5, 6], [0, 7], [1, 2], [3, 4]]
        assert fetch.woken == []

    def test_late_wakes_join_the_rotation_wherever_they_were_appended(self):
        sm = self._setup(warps=8)
        live = sm.live_warps()
        fetch = sm.fetch
        fetch._rr = 2
        assert fetch.tick(0, live) == 2 and self._served(sm, 0) == [2, 3]
        # Warp 3 consumes its entry and wakes again: appended behind
        # the survivors [4..7, 0, 1], served when the pointer reaches it.
        warp = live[3]
        warp.ibuf[0] = None
        warp.wake()
        assert [w.wid for w in fetch.woken] == [4, 5, 6, 7, 0, 1, 3]
        assert fetch.tick(1, live) == 2 and self._served(sm, 1) == [3, 4]
        assert fetch.tick(2, live) == 2 and self._served(sm, 2) == [5, 6]
        assert fetch.tick(3, live) == 2 and self._served(sm, 3) == [0, 7]

    def test_no_more_woken_than_served_skips_the_sort(self, monkeypatch):
        from repro.timing import fetch as fetch_module

        sm = self._setup(warps=8)
        live = sm.live_warps()
        fetch = sm.fetch
        for cycle in range(4):
            fetch.tick(cycle, live)
        assert fetch.woken == []
        # Two wakes in descending order with the pointer between them:
        # both are served this cycle whatever the order, so neither the
        # sort nor the bisect runs.
        monkeypatch.setattr(
            fetch_module, "bisect_left", lambda *a, **k: pytest.fail("bisected")
        )
        for wid in (6, 1):
            live[wid].ibuf[0] = None
            live[wid].wake()
        fetch._rr = 4
        assert [w.wid for w in fetch.woken] == [6, 1]
        assert fetch.tick(9, live) == 2 and self._served(sm, 9) == [1, 6]
        assert fetch.woken == [] and fetch._rr == 5
        # A third wake makes it a contest again: rotation from warp 5.
        monkeypatch.undo()
        for wid in (2, 7, 0):
            live[wid].ibuf[0] = None
            live[wid].wake()
        assert fetch.tick(10, live) == 2 and self._served(sm, 10) == [0, 7]
        assert [w.wid for w in fetch.woken] == [2]

    def test_two_way_warps_contend_from_two_up(self):
        """One SBI warp can take the whole bandwidth for its two hot
        splits, so two woken warps already rotate."""
        sm = self._setup(warps=4, mode="sbi")
        assert sm.fetch._uncontended == 1
        sm = self._setup(warps=4, mode="baseline")
        assert sm.fetch._uncontended == 2

    def test_a_fill_the_scoreboard_refuses_raises_awaited(self):
        sm = self._setup(warps=2)
        warp = sm.live_warps()[0]
        other = sm.live_warps()[1]
        add = sm.kernel.program.instructions[0]
        in_flight = warp.scoreboard.add(add, warp.model.launch_mask, 0)  # writes v
        assert sm.fetch.tick(0, sm.live_warps()) == 2
        # ``add v, v, 1`` behind an in-flight write of v: no probe could
        # say yes before the release, so none is queued; the refusal is
        # kept for the release to re-check.  The other warp's fill is a
        # yes the fetch engine hands the ready set without a probe.
        assert warp.ibuf[0] is not None and warp.scoreboard.awaited
        split, entry, _ = warp.scoreboard.awaited
        assert entry is warp.ibuf[0] and split is warp.model.hot_splits(0)[0]
        assert not warp.issue_woken and warp not in sm.scheduler.woken[0]
        assert other.cand0 is not None and other.cand0[5] is other.ibuf[0]
        assert not other.issue_woken and not other.scoreboard.awaited
        # The release is the wake (SM.step's writeback loop).
        import heapq

        heapq.heappush(sm._wb_heap, (4, 0, warp, in_flight))
        for cycle in range(1, 4):
            sm.step(cycle)
            assert warp.cand0 is None and not warp.issue_woken
        issued = sm.stats.instructions_issued
        sm.step(4)
        assert sm.stats.instructions_issued == issued + 1
        assert warp.model.hot_splits(4)[0].pc == 1
        # ... and the next ``add v, v, 1``, filled the same cycle, waits
        # for this one's write in turn.
        assert warp.scoreboard.awaited and not warp.issue_woken


class TestBufferWays:
    """Each warp owns its instruction-buffer ways (``TimingWarp.ibuf``):
    one per hot context, a list of its own, and a CTA launched into the
    slots of a retired one starts from new, empty ways."""

    @pytest.mark.parametrize("mode", ["baseline", "sbi"])
    def test_ways_are_per_warp_and_new_at_every_launch(self, mode, monkeypatch):
        from repro.core.gpu import GPUDevice
        from repro.core.sm import StreamingMultiprocessor
        from repro.functional.memory import MemoryImage
        from repro.isa.builder import KernelBuilder
        from repro.timing.config import GPUConfig

        kb = KernelBuilder("ways")
        (v,) = kb.regs("v")
        for _ in range(4):
            kb.add(v, v, 1)
        kb.exit_()
        cfg = presets.by_name(mode, warp_count=4)
        # Two warps per CTA, two CTAs resident, six in the grid: four
        # launches reuse the slots of a retired CTA.
        kernel = kb.build(cta_size=2 * cfg.warp_width, grid_size=6)
        launches = []
        seen = []  # every ways list handed out so far
        launch = StreamingMultiprocessor._launch_cta

        def checked_launch(sm, cta, slots, now):
            launch(sm, cta, slots, now)
            new = [sm.warp_slots[slot] for slot in slots]
            for warp in new:
                assert warp.ibuf == [None] * warp.model.hot_capacity
                assert all(warp.ibuf is not ways for ways in seen)
                seen.append(warp.ibuf)
            resident = [w for w in sm.warp_slots if w is not None]
            assert len({id(w.ibuf) for w in resident}) == len(resident)
            launches.append(slots)

        monkeypatch.setattr(StreamingMultiprocessor, "_launch_cta", checked_launch)
        device = GPUDevice(kernel, MemoryImage(), GPUConfig(sm=cfg))
        device.run()
        assert len(launches) == 6
        assert len(set(launches)) == 2  # the later CTAs reused the slots
        assert len(seen) == 12
