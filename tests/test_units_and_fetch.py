"""Execution groups (co-issue rules) and the tagged fetch pool."""

import pytest

from repro.isa.instructions import Instruction, Op, OpClass, imm
from repro.core import presets
from repro.timing.masks import full_mask
from repro.timing.units import Backend, ExecGroup


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
        assert b.pick_group(SFU, 1, full_mask(64), co_issue=False) is None
        assert b.pick_group(SFU, 8, full_mask(64), co_issue=False) is b.sfu

    def test_co_issue_disjoint(self):
        b = self.make()
        g = b.pick_group(MAD, 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        assert b.pick_group(MAD, 0, 0xF0, co_issue=True) is g
        assert b.pick_group(MAD, 0, 0x0C, co_issue=True) is None
        assert b.pick_group(MAD, 0, 0xF0, co_issue=False) is None

    def test_at_most_two_per_cycle(self):
        b = self.make()
        g = b.pick_group(MAD, 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        g.accept(0, 0xF0)
        assert b.pick_group(MAD, 0, 0xF00, co_issue=True) is None
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
        g = b.pick_group(MAD, 0, 0x0F, co_issue=False)
        g.accept(0, 0x0F)
        assert b.pick_group(MAD, 1, 0x0F, co_issue=False) is g

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
        assert all(g.kind is OpClass.MAD for g in b.candidates(OpClass.CTRL))

    def test_pick_prefers_free_group(self):
        b = Backend(presets.baseline())
        g1 = b.pick_group(OpClass.MAD, 0, full_mask(32), co_issue=False)
        g1.accept(0, full_mask(32))
        g2 = b.pick_group(OpClass.MAD, 0, full_mask(32), co_issue=False)
        assert g2 is not None and g2 is not g1

    def test_pick_none_when_saturated(self):
        b = Backend(presets.sbi())
        mad = b.pick_group(OpClass.MAD, 0, full_mask(64), co_issue=False)
        mad.accept(0, full_mask(64))
        assert b.pick_group(OpClass.MAD, 0, full_mask(64), co_issue=True) is None

    def test_next_free_cycle(self):
        b = Backend(presets.sbi())
        assert b.next_free_cycle(0) is None
        b.sfu.accept(0, full_mask(64))  # 8 waves on the 8-wide SFU
        assert b.next_free_cycle(0) == 8


class TestFetchEngine:
    def _setup(self, mode="baseline"):
        import numpy as np
        from repro.core.sm import StreamingMultiprocessor
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
        sm = StreamingMultiprocessor(kernel, mem, cfg)
        sm._initial_launch()
        return sm

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
        group = sm.backend.pick_group(entry.instr.op_class, 1, split.lane_mask, False)
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
            for wid, ways in sm.fetch.buffers.items()
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
