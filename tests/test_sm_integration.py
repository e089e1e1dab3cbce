"""SM pipeline integration: barriers, CTA dispatch, event skipping,
memory-system interaction, and the paper's structural properties."""

import numpy as np
import pytest

from repro.core import presets
from repro.core.gpu import GPUDevice, deadlock_report, overrun_report
from repro.core.sm import SimulationError
from repro.core.simulator import simulate, simulate_device
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.timing.config import GPUConfig


def _barrier_kernel():
    """Producer/consumer through shared memory: wrong barrier handling
    corrupts the result."""
    kb = KernelBuilder("barrier")
    t, v, a, p = kb.regs("t", "v", "a", "p")
    kb.mov(t, kb.tid)
    kb.mul(a, t, 4)
    kb.st(0, t, index=a, space=MemSpace.SHARED)
    kb.bar()
    # Read the neighbour's value (wraps within the CTA).
    kb.add(v, t, 1)
    kb.and_(v, v, 63)
    kb.mul(a, v, 4)
    kb.ld(v, 0, index=a, space=MemSpace.SHARED)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mul(a, t, 4)
    kb.st(kb.param(0), v, index=a)
    kb.exit_()
    return kb


def _divergent_barrier_kernel():
    """Threads reach the barrier from divergent paths (legal: all
    threads execute it)."""
    kb = KernelBuilder("divbar")
    t, p, v, a = kb.regs("t", "p", "v", "a")
    kb.mov(t, kb.tid)
    kb.and_(p, t, 1)
    kb.bra("odd", cond=p)
    kb.mov(v, 10)
    kb.bra("join")
    kb.label("odd")
    kb.mov(v, 20)
    kb.label("join")
    kb.bar()
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mul(a, t, 4)
    kb.st(kb.param(0), v, index=a)
    kb.exit_()
    return kb


ALL_MODES = ("baseline", "warp64", "sbi", "swi", "sbi_swi")


def _stranded_barrier_kernel(cta_size=32, grid_size=1):
    """A barrier on one side of an unreconverged divergence (UB)."""
    kb = KernelBuilder("dead")
    t, p = kb.regs("t", "p")
    kb.mov(t, kb.tid)
    kb.and_(p, t, 1)
    kb.bra("wait", cond=p)
    kb.exit_()
    kb.label("wait")
    kb.bar()
    kb.exit_()
    return kb.build(cta_size=cta_size, grid_size=grid_size, layout="as_is")


def _launched_sm(kernel, memory, config):
    """The one SM of a one-SM device, its CTAs launched, to be stepped
    by hand."""
    device = GPUDevice(kernel, memory, GPUConfig(sm=config))
    device._initial_launch()
    (sm,) = device.sms
    return sm


class TestBarriers:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_producer_consumer(self, mode):
        mem = MemoryImage()
        out = mem.alloc(256 * 4)
        kernel = _barrier_kernel().build(
            cta_size=64, grid_size=4, params=(out,), shared_bytes=64 * 4
        )
        simulate(kernel, mem, presets.by_name(mode))
        got = mem.read_array(out, 256)
        expect = np.tile((np.arange(64) + 1) % 64, 4)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_divergent_arrival(self, mode):
        mem = MemoryImage()
        out = mem.alloc(128 * 4)
        kernel = _divergent_barrier_kernel().build(
            cta_size=64, grid_size=2, params=(out,)
        )
        simulate(kernel, mem, presets.by_name(mode))
        got = mem.read_array(out, 128)
        expect = np.where(np.arange(128) % 2 == 1, 20, 10)
        np.testing.assert_array_equal(got, expect)


class TestCTADispatch:
    def test_more_ctas_than_slots(self):
        kb = KernelBuilder("many")
        t, a = kb.regs("t", "a")
        kb.mov(t, kb.tid)
        kb.mad(t, kb.ctaid, kb.ntid, t)
        kb.mul(a, t, 4)
        kb.st(kb.param(0), t, index=a)
        kb.exit_()
        mem = MemoryImage()
        n = 4096  # 16 CTAs of 256 > resident capacity
        out = mem.alloc(n * 4)
        kernel = kb.build(cta_size=256, grid_size=16, params=(out,))
        stats = simulate(kernel, mem, presets.baseline())
        assert stats.ctas_launched == 16
        np.testing.assert_array_equal(mem.read_array(out, n), np.arange(n))

    def test_partial_last_warp(self):
        kb = KernelBuilder("partial")
        t, a = kb.regs("t", "a")
        kb.mov(t, kb.tid)
        kb.mul(a, t, 4)
        kb.st(kb.param(0), t, index=a)
        kb.exit_()
        mem = MemoryImage()
        out = mem.alloc(64 * 4)
        kernel = kb.build(cta_size=40, grid_size=1, params=(out,))  # 40 < 64
        simulate(kernel, mem, presets.warp64())
        np.testing.assert_array_equal(mem.read_array(out, 40), np.arange(40))

    def test_oversized_cta_rejected(self):
        kb = KernelBuilder("big")
        kb.exit_()
        kernel = kb.build(cta_size=4096, grid_size=1)
        with pytest.raises(SimulationError):
            simulate(kernel, MemoryImage(), presets.baseline())

    def test_warps_retired_counted(self):
        kb = KernelBuilder("retire")
        kb.exit_()
        kernel = kb.build(cta_size=128, grid_size=2)
        stats = simulate(kernel, MemoryImage(), presets.baseline())
        assert stats.warps_retired == 8  # 2 CTAs x 4 warps of 32


class TestTimeoutAndEvents:
    def test_cycle_limit(self):
        kb = KernelBuilder("spin")
        c, p = kb.regs("c", "p")
        kb.mov(c, 1_000_000)
        kb.label("l")
        kb.sub(c, c, 1)
        kb.setp(p, CmpOp.GT, c, 0)
        kb.bra("l", cond=p)
        kb.exit_()
        kernel = kb.build(cta_size=32, grid_size=1)
        with pytest.raises(SimulationError, match="exceeded"):
            simulate(kernel, MemoryImage(), presets.baseline(max_cycles=500))

    def test_overrun_report_ipc_is_per_cycle(self):
        """The overrun message must divide by *cycles*, report both
        thread-level IPC and issue IPC, and never divide by zero."""
        from repro.timing.stats import Stats

        stats = Stats(instructions_issued=50, thread_instructions=1600)
        msg = overrun_report("k", 1000, 800, stats)
        assert "kernel k exceeded the 1000-cycle limit at cycle 800" in msg
        assert "50 instructions issued" in msg
        assert "1600 thread instructions" in msg
        assert "IPC %.2f" % (1600 / 800) in msg       # per-cycle, not per-limit
        assert "issue IPC %.3f" % (50 / 800) in msg
        # now=0 (overrun before any progress) must not crash.
        assert "IPC 0.00" in overrun_report("k", 0, 0, Stats())

    def test_overrun_message_end_to_end(self):
        kb = KernelBuilder("spin2")
        c, p = kb.regs("c", "p")
        kb.mov(c, 1_000_000)
        kb.label("l")
        kb.sub(c, c, 1)
        kb.setp(p, CmpOp.GT, c, 0)
        kb.bra("l", cond=p)
        kb.exit_()
        kernel = kb.build(cta_size=32, grid_size=1)
        with pytest.raises(SimulationError) as excinfo:
            simulate(kernel, MemoryImage(), presets.baseline(max_cycles=500))
        msg = str(excinfo.value)
        assert "500-cycle limit" in msg
        assert "issue IPC" in msg

    def test_event_skipping_matches_dense_clock(self):
        """Event-driven skipping is a pure wall-clock optimisation: a
        memory-latency-bound kernel still reports correct cycle counts
        (DRAM latency must show up in the total)."""
        kb = KernelBuilder("latency")
        t, a, v = kb.regs("t", "a", "v")
        kb.mov(t, kb.tid)
        kb.mul(a, t, 4)
        kb.ld(v, kb.param(0), index=a)
        kb.mul(v, v, 2)
        kb.st(kb.param(0), v, index=a)
        kb.exit_()
        mem = MemoryImage()
        data = mem.alloc_array(np.arange(32))
        kernel = kb.build(cta_size=32, grid_size=1, params=(data,))
        stats = simulate(kernel, mem, presets.baseline())
        assert stats.cycles > presets.baseline().dram_latency

    def test_divergent_barrier_ub_is_diagnosed_not_hung(self):
        """A barrier on one side of an unreconverged divergence is
        undefined behaviour in the programming model.  The stack
        serialises paths, so the parked top of stack can starve the
        other path: the simulator must report a deadlock diagnostic
        promptly instead of spinning.  Thread-frontier models run the
        minimum PC (the exiting path) first and complete."""
        kernel = _stranded_barrier_kernel()
        # Frontier reconvergence completes (exit has the lower PC).
        simulate(kernel, MemoryImage(), presets.warp64(max_cycles=100_000))
        # The stack either completes or reports a deadlock — never hangs.
        try:
            simulate(kernel, MemoryImage(), presets.baseline(max_cycles=100_000))
        except SimulationError as err:
            assert "deadlock" in str(err)

    def test_deadlock_report_lists_splits_and_next_wake(self):
        """One line per live warp: its splits and its next split wake;
        one line per SM: its next event."""
        kernel = _stranded_barrier_kernel(cta_size=64)  # two 32-wide warps
        with pytest.raises(SimulationError) as excinfo:
            simulate(kernel, MemoryImage(), presets.baseline(max_cycles=100_000))
        lines = str(excinfo.value).splitlines()
        assert lines[0].startswith("deadlock at cycle")
        assert lines[0].endswith("in kernel dead (SM 0)")
        for wid in (0, 1):
            (line,) = [l for l in lines if l.startswith("  warp %d (cta 0): " % wid)]
            # The exiting path and the parked ("P") barrier path.
            assert "Split(pc=3, mask=0x55555555)" in line
            assert "Split(pc=4, mask=0xaaaaaaaaP)" in line
            assert line.endswith("scoreboard=0; next wake none")
        assert lines[-1] == "  next event (SM 0): none"

        # Mid-run (not wedged) the same report names real cycles: right
        # after the divergent branch issues, its redirect is pending.
        sm = _launched_sm(kernel, MemoryImage(), presets.baseline())
        now = 0
        while not sm.stats.divergent_branches:
            now = now + 1 if sm.step(now) else sm.next_event_cycle(now)
        report = deadlock_report("probe", [sm], now)
        wakes = [
            int(line.rsplit(" ", 1)[1])
            for line in report.splitlines()
            if line.startswith("  warp ") and not line.endswith("none")
        ]
        assert wakes and all(w > now for w in wakes)
        assert report.splitlines()[-1] == "  next event (SM 0): %d" % min(
            wakes + [sm.next_event_cycle(now)]
        )

    @pytest.mark.parametrize("grid_size,stuck", [(1, "SM 0"), (2, "SMs 0, 1")])
    def test_device_deadlock_names_its_kernel_and_stuck_sms(self, grid_size, stuck):
        """A deadlock reads the same on any device: the cycle, the
        kernel, the SMs that are stuck (an SM with no CTA finishes and
        is not listed), then each stuck SM's block."""
        kernel = _stranded_barrier_kernel(grid_size=grid_size)
        config = presets.device("baseline", sm_count=2, l2_size=0)
        with pytest.raises(SimulationError) as excinfo:
            simulate_device(kernel, MemoryImage(), config)
        lines = str(excinfo.value).splitlines()
        assert lines[0].startswith("deadlock at cycle")
        assert lines[0].endswith("in kernel dead (%s)" % stuck)
        blocks = [l for l in lines if l.startswith("  next event (SM ")]
        assert blocks == ["  next event (SM %d): none" % i for i in range(grid_size)]

    def test_unknown_engine_rejected(self):
        """``engine`` survives only as the benchmark probe's call shape:
        ``"reference"`` runs, anything else is refused by name."""
        kernel = _stranded_barrier_kernel()
        for engine in ("event", "cycles"):
            with pytest.raises(
                ValueError, match='unknown engine .*engine="reference"'
            ):
                simulate(kernel, MemoryImage(), presets.warp64(), engine=engine)
        stats = simulate(kernel, MemoryImage(), presets.warp64(), engine="reference")
        assert stats == simulate(kernel, MemoryImage(), presets.warp64())


class TestNextEventCycle:
    @pytest.mark.parametrize("workload,mode", [
        ("matrixmul", "baseline"),
        ("mandelbrot", "sbi_swi"),
        ("bfs", "warp64"),
    ])
    def test_idle_jumps_move_forward_and_finish_the_run(self, workload, mode):
        """Drive the run loop by hand: on every idle cycle
        ``next_event_cycle`` names a strictly later cycle, and jumping
        there (never stepping the span in between) completes the run
        on the cycle ``simulate`` reports."""
        from repro.workloads import get_workload

        config = presets.by_name(mode)
        inst = get_workload(workload, "tiny")
        expected = simulate(inst.kernel, inst.memory, config)
        inst = get_workload(workload, "tiny")
        sm = _launched_sm(inst.kernel, inst.memory, config)
        now = jumps = 0
        with np.errstate(all="ignore"):
            while now < config.max_cycles:
                progressed = sm.step(now)
                if sm.finished:
                    break
                if progressed:
                    now += 1
                    continue
                nxt = sm.next_event_cycle(now)
                assert nxt is not None and nxt > now, (now, nxt)
                now = nxt
                jumps += 1
        assert sm.finished, "run did not complete within max_cycles"
        assert jumps > 0, "workload never went idle; the skip is untested"
        assert now + 1 == expected.cycles
        sm.stats.cycles = now + 1
        assert sm.stats == expected


class TestMemorySystemIntegration:
    def test_l1_reuse_detected(self):
        kb = KernelBuilder("reuse")
        t, a, v, acc, c, p = kb.regs("t", "a", "v", "acc", "c", "p")
        kb.mov(t, kb.tid)
        kb.mul(a, t, 4)
        kb.mov(c, 4)
        kb.label("l")
        kb.ld(v, kb.param(0), index=a)
        kb.add(acc, acc, v)
        kb.sub(c, c, 1)
        kb.setp(p, CmpOp.GT, c, 0)
        kb.bra("l", cond=p)
        kb.st(kb.param(0), acc, index=a)
        kb.exit_()
        mem = MemoryImage()
        data = mem.alloc_array(np.ones(256))
        kernel = kb.build(cta_size=256, grid_size=1, params=(data,))
        stats = simulate(kernel, mem, presets.baseline())
        assert stats.l1_hits > stats.l1_misses

    def test_dram_traffic_accounted(self):
        kb = KernelBuilder("stream")
        t, a, v = kb.regs("t", "a", "v")
        kb.mov(t, kb.tid)
        kb.mad(t, kb.ctaid, kb.ntid, t)
        kb.mul(a, t, 4)
        kb.ld(v, kb.param(0), index=a)
        kb.st(kb.param(1), v, index=a)
        kb.exit_()
        mem = MemoryImage()
        n = 1024
        src = mem.alloc_array(np.arange(n))
        dst = mem.alloc(n * 4)
        kernel = kb.build(cta_size=256, grid_size=4, params=(src, dst))
        stats = simulate(kernel, mem, presets.baseline())
        assert stats.dram_bytes >= n * 4  # fills + write-through
        np.testing.assert_array_equal(mem.read_array(dst, n), np.arange(n))
