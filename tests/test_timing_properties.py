"""Timing-model sanity properties that must hold for any kernel."""

import numpy as np
import pytest

from repro.core import presets
from repro.core.simulator import simulate
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp


def _mixed_kernel():
    """Arithmetic + SFU + memory mix with mild divergence."""
    kb = KernelBuilder("mixed")
    t, p, v, a, c = kb.regs("t", "p", "v", "a", "c")
    kb.mov(t, kb.tid)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mul(a, t, 4)
    kb.ld(v, kb.param(0), index=a)
    kb.and_(c, t, 3)
    kb.label("loop")
    kb.mad(v, v, 1.0009765625, 0.5)
    kb.sqrt(v, v)
    kb.sub(c, c, 1)
    kb.setp(p, CmpOp.GE, c, 0)
    kb.bra("loop", cond=p)
    kb.st(kb.param(0), v, index=a)
    kb.exit_()
    return kb


def _run(config, n=1024):
    mem = MemoryImage()
    data = mem.alloc_array(np.linspace(1.0, 2.0, n))
    kernel = _mixed_kernel().build(cta_size=256, grid_size=n // 256, params=(data,))
    return simulate(kernel, mem, config)


class TestBounds:
    @pytest.mark.parametrize("name", ["baseline", "warp64", "sbi", "swi", "sbi_swi"])
    def test_ipc_within_peak(self, name):
        config = presets.by_name(name)
        assert 0 < _run(config).ipc <= config.peak_ipc

    def test_issue_rate_within_width(self):
        for name in ("baseline", "sbi", "swi", "sbi_swi"):
            stats = _run(presets.by_name(name))
            assert stats.issue_ipc <= presets.by_name(name).issue_width + 1e-9
        stats = _run(presets.warp64())
        assert stats.issue_ipc <= 1.0 + 1e-9

    def test_busy_cycles_bounded(self):
        stats = _run(presets.baseline())
        assert 0 < stats.busy_cycles <= stats.cycles

    def test_avg_active_threads_within_warp(self):
        for name in ("baseline", "sbi_swi"):
            stats = _run(presets.by_name(name))
            width = presets.by_name(name).warp_width
            assert 0 < stats.avg_active_threads <= width


class TestMonotonicity:
    def test_slower_memory_never_helps(self):
        fast = _run(presets.baseline(dram_bandwidth=64.0, dram_latency=50))
        slow = _run(presets.baseline(dram_bandwidth=2.0, dram_latency=600))
        assert slow.cycles >= fast.cycles

    def test_zero_latency_l1_never_hurts(self):
        fast = _run(presets.baseline(l1_latency=1))
        slow = _run(presets.baseline(l1_latency=30))
        assert slow.cycles >= fast.cycles

    def test_more_scoreboard_entries_never_hurt(self):
        few = _run(presets.baseline(scoreboard_entries=1))
        many = _run(presets.baseline(scoreboard_entries=8))
        assert many.cycles <= few.cycles

    def test_longer_exec_latency_costs_cycles(self):
        short = _run(presets.warp64(exec_latency=2))
        long = _run(presets.warp64(exec_latency=24))
        assert long.cycles > short.cycles


class TestAccountingConsistency:
    def test_issue_slot_partition(self):
        for name in ("baseline", "sbi", "swi", "sbi_swi"):
            stats = _run(presets.by_name(name))
            assert (
                stats.issued_primary
                + stats.issued_sbi_secondary
                + stats.issued_swi_secondary
                == stats.instructions_issued
            )

    def test_l1_accesses_partition(self):
        stats = _run(presets.baseline())
        assert stats.l1_hits + stats.l1_misses == stats.l1_accesses

    def test_dram_traffic_at_least_misses(self):
        stats = _run(presets.baseline())
        assert stats.dram_bytes >= stats.l1_misses * 128

    def test_branches_at_least_divergent(self):
        stats = _run(presets.baseline())
        assert stats.branches >= stats.divergent_branches > 0
