"""The multi-SM device layer: dispatcher, equivalence, determinism."""

import gc
import json
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import presets
from repro.core.gpu import CTADispatcher, GPUDevice, simulate_device
from repro.core.policy.observers import IssueTrace
from repro.core.simulator import SimulationError, simulate
from repro.core.sm import StreamingMultiprocessor
from repro.core.warp import TimingWarp
from repro.functional import compiled as compiled_plans
from repro.functional.executor import FunctionalWarp, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import MemSpace, OperandKind
from repro.timing.config import GPUConfig, SMConfig
from repro.timing.divergence import DivergenceModel
from repro.timing.scoreboard import ScoreboardBase
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.common import emit_byte_index, emit_global_tid


def _saxpy_kernel(grid_size=8, cta_size=128):
    """y[i] = 2*x[i] + y[i] over the whole grid (one CTA per slice)."""
    kb = KernelBuilder("saxpy")
    i, b, x, y = kb.regs("i", "b", "x", "y")
    emit_global_tid(kb, i)
    emit_byte_index(kb, b, i)
    kb.ld(x, kb.param(0), index=b)
    kb.ld(y, kb.param(1), index=b)
    kb.mad(y, x, 2, y)
    kb.st(kb.param(1), y, index=b)
    kb.exit_()
    return kb.build(cta_size=cta_size, grid_size=grid_size, params=(0.0, 0.0))


def _saxpy_instance(grid_size=8, cta_size=128):
    from repro.functional.memory import MemoryImage

    n = grid_size * cta_size
    mem = MemoryImage(1 << 20)
    rng = np.random.default_rng(7)
    x = rng.integers(0, 100, n).astype(np.float64)
    y = rng.integers(0, 100, n).astype(np.float64)
    ax = mem.alloc_array(x)
    ay = mem.alloc_array(y)
    kernel = _saxpy_kernel(grid_size, cta_size).with_params(ax, ay)
    return kernel, mem, ay, 2 * x + y


class TestCTADispatcher:
    def test_sequential_order(self):
        d = CTADispatcher(3)
        assert [d.acquire() for _ in range(4)] == [0, 1, 2, None]

    def test_has_pending(self):
        d = CTADispatcher(1)
        assert d.has_pending() and d.remaining == 1
        d.acquire()
        assert not d.has_pending() and d.remaining == 0

    def test_empty_grid(self):
        d = CTADispatcher(0)
        assert not d.has_pending() and d.acquire() is None


GOLDEN_DEVICE = os.path.join(os.path.dirname(__file__), "data", "golden_device.json")


def _golden_device_text():
    """The bytes of ``tests/data/golden_device.json``: full
    ``DeviceStats.to_dict()`` of two kernels on a 4-SM SBI+SWI device,
    behind the shared L2 and on private channels."""
    cells = {}
    for workload in ("bfs", "transpose"):
        for tag, overrides in (("l2", {}), ("no_l2", {"l2_size": 0})):
            inst = get_workload(workload, "tiny")
            config = presets.device("sbi_swi", sm_count=4, **overrides)
            stats = simulate_device(inst.kernel, inst.memory, config)
            cells["%s/%s" % (workload, tag)] = stats.to_dict()
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


EQUIVALENCE_WORKLOADS = ("histogram", "bfs", "matrixmul", "transpose")


class TestSingleSMEquivalence:
    """A 1-SM device must be cycle- and byte-identical to simulate()."""

    @pytest.mark.parametrize("workload", EQUIVALENCE_WORKLOADS)
    @pytest.mark.parametrize("mode", ("baseline", "sbi_swi"))
    def test_cycles_and_outputs_match(self, workload, mode):
        ref = get_workload(workload, "tiny")
        dev = get_workload(workload, "tiny")
        sm_cfg = presets.by_name(mode)
        s = simulate(ref.kernel, ref.memory, sm_cfg)
        ds = simulate_device(dev.kernel, dev.memory, GPUConfig(sm=sm_cfg, sm_count=1))
        assert ds.cycles == s.cycles
        assert ds.sm_stats[0].to_dict() == s.to_dict()
        for (_, a), (_, b) in zip(
            sorted(ref.read_outputs().items()), sorted(dev.read_outputs().items())
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_full_suite_equivalence(self, workload):
        """Acceptance: a default 1-SM device reproduces simulate()
        byte- and cycle-exactly on every tier-1 workload."""
        ref = get_workload(workload, "tiny")
        dev = get_workload(workload, "tiny")
        s = simulate(ref.kernel, ref.memory, SMConfig())
        ds = simulate_device(dev.kernel, dev.memory, GPUConfig())
        assert ds.cycles == s.cycles
        assert ds.sm_stats[0].to_dict() == s.to_dict()
        for (_, a), (_, b) in zip(
            sorted(ref.read_outputs().items()), sorted(dev.read_outputs().items())
        ):
            assert np.array_equal(a, b)

    def test_device_ipc_matches_sm_ipc(self):
        inst = get_workload("histogram", "tiny")
        ds = simulate_device(inst.kernel, inst.memory, GPUConfig())
        assert ds.ipc == pytest.approx(ds.sm_stats[0].ipc)


class TestMultiSM:
    def _device(self, sm_count, **overrides):
        return presets.device("baseline", sm_count=sm_count, **overrides)

    def test_grid_sharded_across_sms(self):
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        ds = simulate_device(kernel, mem, self._device(4))
        per_sm = [s.ctas_launched for s in ds.sm_stats]
        assert sum(per_sm) == 8
        assert all(c >= 1 for c in per_sm)  # breadth-first initial fill

    def test_functional_output_correct(self):
        kernel, mem, ay, expect = _saxpy_instance(grid_size=8)
        simulate_device(kernel, mem, self._device(4))
        assert np.array_equal(mem.read_array(ay, len(expect)), expect)

    def test_workload_functional_check_multi_sm(self):
        for workload in ("transpose", "histogram"):
            inst = get_workload(workload, "tiny")
            simulate_device(inst.kernel, inst.memory, presets.device("sbi_swi", sm_count=2))
            assert inst.numpy_check is not None
            inst.numpy_check(inst.memory)

    def test_deterministic(self):
        """Same seed/config -> bit-identical DeviceStats."""
        runs = []
        for _ in range(2):
            inst = get_workload("transpose", "tiny")
            ds = simulate_device(
                inst.kernel, inst.memory, presets.device("sbi_swi", sm_count=4)
            )
            runs.append(ds.to_dict())
        assert runs[0] == runs[1]

    def test_more_sms_not_slower(self):
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        one = simulate_device(*_saxpy_instance(grid_size=8)[:2], self._device(1))
        four = simulate_device(kernel, mem, self._device(4))
        assert four.cycles < one.cycles

    def test_grid_smaller_than_device(self):
        """SMs beyond the grid stay idle and the run still completes."""
        inst = get_workload("matrixmul", "tiny")  # 1 CTA
        ds = simulate_device(inst.kernel, inst.memory, self._device(4))
        assert ds.ctas_launched == 1
        assert sum(1 for s in ds.sm_stats if s.ctas_launched) == 1

    def test_l2_shared_across_sms(self):
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        ds = simulate_device(kernel, mem, self._device(4))
        assert ds.l2_accesses > 0
        assert ds.dram_bytes > 0

    def test_no_l2_private_channels(self):
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        ds = simulate_device(kernel, mem, self._device(4, l2_size=0))
        assert ds.l2_accesses == 0
        assert ds.dram_bytes > 0


class TestGoldenDevice:
    def test_multi_sm_stats_match_golden_bytes(self):
        """The tier-1 pin on ``sm_count > 1`` numbers.  The file was
        written by the last tree that still had the event-heap device
        loop; a diff means device timing changed, not that the fixture
        needs regenerating."""
        with open(GOLDEN_DEVICE) as f:
            assert _golden_device_text() == f.read()

    def test_unknown_engine_rejected_before_the_device_is_built(self):
        for engine in ("event", "cycles"):
            # kernel=None would fail with AttributeError in GPUDevice().
            with pytest.raises(
                ValueError, match='unknown engine .*engine="reference"'
            ):
                simulate_device(None, None, engine=engine)

    def test_reference_engine_keyword_still_runs(self):
        """The benchmark probe's call shape."""
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        ds = simulate_device(kernel, mem, presets.device("baseline", sm_count=4),
                             engine="reference")
        plain = simulate_device(*_saxpy_instance(grid_size=8)[:2],
                                presets.device("baseline", sm_count=4))
        assert ds.to_dict() == plain.to_dict()


class TestDeviceStatsAggregation:
    def test_totals_sum_over_sms(self):
        kernel, mem, _, _ = _saxpy_instance(grid_size=8)
        ds = simulate_device(kernel, mem, presets.device("baseline", sm_count=4))
        assert ds.thread_instructions == sum(
            s.thread_instructions for s in ds.sm_stats
        )
        total = ds.total
        assert total.cycles == ds.cycles
        assert total.thread_instructions == ds.thread_instructions
        assert total.ctas_launched == 8

    def test_round_trip_dict(self):
        inst = get_workload("histogram", "tiny")
        ds = simulate_device(inst.kernel, inst.memory, presets.device("baseline", sm_count=2))
        from repro.timing.stats import DeviceStats

        again = DeviceStats.from_dict(ds.to_dict())
        assert again.to_dict() == ds.to_dict()
        assert again.ipc == ds.ipc


class TestGPUConfig:
    def test_defaults_match_single_sm_model(self):
        cfg = GPUConfig()
        assert cfg.sm_count == 1 and not cfg.uses_l2
        assert cfg.sm_dram_share == cfg.sm.dram_bandwidth

    def test_bandwidth_scales_with_sm_count(self):
        cfg = GPUConfig(sm_count=4)
        assert cfg.total_dram_bandwidth == 4 * cfg.sm.dram_bandwidth

    def test_explicit_bandwidth_partitions(self):
        cfg = GPUConfig(
            sm_count=2,
            l2_size=1 << 20,
            dram_partitions=4,
            dram_bandwidth=32.0,
        )
        assert cfg.partition_bandwidth == 8.0
        assert cfg.l2_slice_size == (1 << 20) // 4

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUConfig(sm_count=0)
        with pytest.raises(ValueError):
            GPUConfig(l2_size=1000)  # not sets * ways * block
        with pytest.raises(ValueError):
            GPUConfig(l2_size=1 << 20, l2_block=96)  # not multiple of sector
        with pytest.raises(ValueError):
            GPUConfig(l2_size=1 << 20, dram_partitions=3)

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries(dict(
        sm_count=st.integers(1, 3),
        l2_size=st.sampled_from([0, 0, 4096, 8192, 12288, 16384]),
        l2_ways=st.integers(1, 4),
        l2_block=st.sampled_from([64, 128, 256]),
        l2_sector=st.sampled_from([16, 32, 48, 128]),
        l2_latency=st.integers(0, 40),
        dram_partitions=st.integers(1, 4),
        dram_bandwidth=st.one_of(st.none(), st.floats(0.5, 64.0)),
        dram_latency=st.one_of(st.none(), st.integers(0, 400)),
    )))
    def test_an_accepted_config_runs_and_a_refusal_names_its_field(self, fields):
        """Every device ``GPUConfig`` accepts runs a small grid to
        completion with the right output; every one it refuses is a
        ``ValueError`` whose message starts with the field at fault."""
        try:
            config = GPUConfig(sm=presets.baseline(), **fields)
        except ValueError as err:
            assert re.match(r"(%s) " % "|".join(fields), str(err)), err
            return
        kernel, mem, ay, expected = _saxpy_instance(grid_size=4, cta_size=32)
        stats = simulate_device(kernel, mem, config)
        assert sum(sm.ctas_launched for sm in stats.sm_stats) == 4
        np.testing.assert_array_equal(mem.read_array(ay, expected.size), expected)

    def test_replace_revalidates(self):
        cfg = GPUConfig()
        with pytest.raises(ValueError):
            cfg.replace(sm_count=-1)

    def test_describe_mentions_l2(self):
        assert "no L2" in GPUConfig().describe()
        assert "L2" in presets.device().describe()


def _many_ctas_instance(grid_size=12, cta_size=256):
    """A divergent two-sided branch, a shared-memory exchange across a
    barrier and a global store, over more CTAs than one SM holds (4 of
    256 threads): later CTAs launch into the slots earlier ones free."""
    kb = KernelBuilder("many_ctas")
    t, p, v, a, w = kb.regs("t", "p", "v", "a", "w")
    kb.mov(t, kb.tid)
    kb.mul(a, t, 4)
    kb.mov(v, 1.0)
    kb.and_(p, t, 1)
    kb.bra("odd", cond=p)
    for _ in range(4):
        kb.mad(v, v, 3, 1)
    kb.bra("join")
    kb.label("odd")
    for _ in range(4):
        kb.mad(v, v, 5, 2)
    kb.label("join")
    kb.st(0, v, index=a, space=MemSpace.SHARED)
    kb.bar()
    kb.ld(w, 0, index=a, space=MemSpace.SHARED)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mul(a, t, 4)
    kb.st(kb.param(0), w, index=a)
    kb.exit_()
    mem = MemoryImage(1 << 16)
    out = mem.alloc(grid_size * cta_size * 4)
    kernel = kb.build(
        cta_size=cta_size, grid_size=grid_size, shared_bytes=cta_size * 4, params=(out,)
    )
    return kernel, mem


#: The per-warp objects a CTA launch builds, what each warp owns, and
#: the launch's shared rows.
_WARP_STATE = (
    TimingWarp, FunctionalWarp, SharedMemory, DivergenceModel, ScoreboardBase, LaunchRows
)
#: A warp's launch constants, read-only rows shared with other warps:
#: the three tid rows by index in the CTA, the CTA's row, the slot's row.
_LAUNCH_ROWS = ("tids_in_cta", "tids_f64", "lanes_f64", "ctaid_f64", "warpid_f64")


class TestFinishedRunsFreeTheirMemory:
    """``SM <-> scheduler`` is a reference cycle; ``simulate`` and
    ``simulate_device`` break it on the way out, so a finished cell's
    ``MemoryImage`` goes by refcount instead of waiting for a GC pass
    (which is what made ``peak_rss_mb`` move with GC timing)."""

    @pytest.mark.parametrize("mode", presets.FIGURE7_CONFIGS)
    def test_memory_image_dies_with_its_last_reference(self, mode):
        def run(inst):
            if mode == "sbi_swi":
                return simulate_device(
                    inst.kernel, inst.memory, presets.device(mode, sm_count=2)
                )
            return simulate(inst.kernel, inst.memory, presets.by_name(mode))

        gc.collect()
        gc.disable()
        try:
            inst = get_workload("histogram", "tiny")
            alive = weakref.ref(inst.memory)
            stats = run(inst)
            del inst
            assert alive() is None
            assert stats.cycles > 0
        finally:
            gc.enable()

    def test_a_failed_run_frees_it_too(self):
        gc.collect()
        gc.disable()
        try:
            inst = get_workload("histogram", "tiny")
            alive = weakref.ref(inst.memory)
            with pytest.raises(SimulationError):
                simulate(inst.kernel, inst.memory, presets.baseline(max_cycles=5))
            with pytest.raises(SimulationError):
                simulate_device(
                    inst.kernel, inst.memory,
                    presets.device("baseline", sm_count=2, sm=presets.baseline(max_cycles=5)),
                )
            del inst
            assert alive() is None
        finally:
            gc.enable()

    @staticmethod
    def _watch_launches(monkeypatch):
        """Weak references to every warp, register file and CTA shared
        memory the runs launch, and to the launch rows each warp reads
        (:data:`_LAUNCH_ROWS`)."""
        refs = []
        launch = StreamingMultiprocessor._launch_cta

        def watched(sm, cta, slots, now):
            launch(sm, cta, slots, now)
            for warp in sm.cta_warps[cta]:
                fwarp = warp.fwarp
                refs.extend(weakref.ref(o) for o in (warp, fwarp, fwarp.shared))
                refs.extend(weakref.ref(getattr(fwarp, name)) for name in _LAUNCH_ROWS)

        monkeypatch.setattr(StreamingMultiprocessor, "_launch_cta", watched)
        return refs

    @staticmethod
    def _left_to_the_collector():
        """What a full collection finds unreachable, by type name, of
        the warp-state types."""
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = sorted(
                type(o).__name__ for o in gc.garbage if isinstance(o, _WARP_STATE)
            )
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.collect()
        return found

    @pytest.mark.parametrize("sm_count", [1, 2])
    @pytest.mark.parametrize("mode", presets.FIGURE7_CONFIGS + ("dwr",))
    def test_retirement_frees_the_cta(self, monkeypatch, mode, sm_count):
        """No warp is a reference cycle: a retired CTA's warps, register
        files and shared memory go by refcount, so with the collector
        off every one of them is gone when the run returns, and a full
        collection afterwards finds nothing of them (nor a divergence
        model or a scoreboard, every kind of which the modes cover).
        Once ``release()`` has returned, nothing keeps the launch's
        rows alive either."""
        refs = self._watch_launches(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            kernel, mem = _many_ctas_instance()
            if sm_count == 1:
                per_sm = [simulate(kernel, mem, presets.by_name(mode))]
            else:
                stats = simulate_device(kernel, mem, presets.device(mode, sm_count=2))
                per_sm = stats.sm_stats
            assert sum(s.ctas_launched for s in per_sm) == kernel.grid_size == 12
            assert len(refs) == (3 + len(_LAUNCH_ROWS)) * sum(s.warps_retired for s in per_sm)
            assert [r for r in refs if r() is not None] == []
            assert self._left_to_the_collector() == []
        finally:
            gc.enable()

    def test_a_failed_run_leaves_no_warp_either(self, monkeypatch):
        """Warps still resident when a run overruns are detached on the
        way out, by ``simulate`` and ``simulate_device`` alike."""
        refs = self._watch_launches(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            for mode in presets.FIGURE7_CONFIGS + ("dwr",):
                kernel, mem = _many_ctas_instance()
                with pytest.raises(SimulationError):
                    simulate(kernel, mem, presets.by_name(mode, max_cycles=5))
                kernel, mem = _many_ctas_instance()
                with pytest.raises(SimulationError):
                    simulate_device(
                        kernel, mem,
                        presets.device(mode, sm_count=2, sm=presets.by_name(mode, max_cycles=5)),
                    )
            assert refs
            assert [r for r in refs if r() is not None] == []
            assert self._left_to_the_collector() == []
        finally:
            gc.enable()


def _named_registers(kernel):
    """Every register index the kernel's program reads, predicates on
    or writes."""
    named = set()
    for instr in kernel.program:
        named.update(s.value for s in instr.srcs if s.kind is OperandKind.REG)
        named.update(r for r in (instr.pred, instr.dst) if r is not None)
    return named


class TestAResidentWarpHoldsOnlyItsOwnState:
    """A warp's register file is what its program names, and its thread
    identity is a set of rows the launch builds once and shares."""

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_the_register_file_is_what_the_program_names(self, workload):
        kernel = get_workload(workload, "tiny").kernel
        assert kernel.nregs == 1 + max(_named_registers(kernel))

    def test_the_workloads_name_231_registers(self):
        # They declared 484 by hand; the file is sized by what they name.
        assert sum(get_workload(w, "tiny").kernel.nregs for w in ALL_WORKLOADS) == 231

    @staticmethod
    def _launched(monkeypatch, mode):
        """Every warp a 2-SM run of ``_many_ctas_instance`` launches
        (12 CTAs, more than the two SMs hold at once), with its SM."""
        launched = []
        launch = StreamingMultiprocessor._launch_cta

        def watched(sm, cta, slots, now):
            launch(sm, cta, slots, now)
            for warp in sm.cta_warps[cta]:
                assert warp.fwarp.regs.shape == (sm.kernel.nregs, sm.config.warp_width)
                launched.append((sm.sm_id, warp))

        monkeypatch.setattr(StreamingMultiprocessor, "_launch_cta", watched)
        kernel, mem = _many_ctas_instance()
        simulate_device(kernel, mem, presets.device(mode, sm_count=2))
        return kernel, launched

    @pytest.mark.parametrize("mode", ["baseline", "sbi_swi"])
    def test_every_resident_warp_has_exactly_the_kernels_registers(self, monkeypatch, mode):
        kernel, launched = self._launched(monkeypatch, mode)
        assert kernel.nregs == 5
        assert {sm_id for sm_id, _ in launched} == {0, 1}
        width = presets.by_name(mode).warp_width
        assert len(launched) == kernel.grid_size * kernel.cta_size // width
        for _, warp in launched:
            assert len(warp.fwarp.rows) == kernel.nregs
            assert all(row.base is warp.fwarp.regs for row in warp.fwarp.rows)

    @pytest.mark.parametrize("mode", ["baseline", "sbi_swi"])
    def test_launch_constants_are_shared_read_only_rows(self, monkeypatch, mode):
        _, launched = self._launched(monkeypatch, mode)
        keys = {
            "tids_in_cta": lambda w: int(w.fwarp.tids_in_cta[0]),  # index in the CTA
            "tids_f64": lambda w: int(w.fwarp.tids_in_cta[0]),
            "lanes_f64": lambda w: int(w.fwarp.tids_in_cta[0]),
            "ctaid_f64": lambda w: w.cta_id,
            "warpid_f64": lambda w: w.wid,
        }
        assert set(keys) == set(_LAUNCH_ROWS)
        for name, key in keys.items():
            by_key = {}
            for _, warp in launched:
                row = getattr(warp.fwarp, name)
                assert not row.flags.writeable, name
                # One row per key, and a distinct one for each key.
                assert by_key.setdefault(key(warp), row) is row, (name, warp)
            assert len({id(row) for row in by_key.values()}) == len(by_key) > 1, name
        # Both SMs' warps of one slot read the one row; a register
        # file is its warp's alone.
        assert {sm_id for sm_id, w in launched if w.wid == 0} == {0, 1}
        assert len({id(w.fwarp.regs) for _, w in launched}) == len(launched)


class TestOneExecutorPerDevice:
    """Every SM of a launch runs the same kernel on the same memory
    image: the device builds one executor, and each instruction is
    compiled once per program and warp width in the process, however
    many SMs and launches issue it."""

    def test_every_sm_shares_the_device_executor(self):
        inst = get_workload("transpose", "tiny")
        device = GPUDevice(inst.kernel, inst.memory, presets.device("sbi_swi", sm_count=2))
        assert device.sms[0].executor is device.sms[1].executor is device.executor
        assert device.executor.compiled

    @pytest.mark.parametrize("mode", ["baseline", "sbi_swi"])
    def test_each_issued_pc_is_compiled_once_per_program_and_width(self, monkeypatch, mode):
        compiles = []
        compile_plan = compiled_plans.compile_plan

        def counted(instr, width):
            compiles.append((instr.pc, width))
            return compile_plan(instr, width)

        monkeypatch.setattr(compiled_plans, "compile_plan", counted)
        inst = get_workload("transpose", "tiny")
        inst.kernel.program.plans.clear()  # compiled by an earlier test
        config = presets.device(mode, sm_count=2)
        trace = IssueTrace()
        stats = simulate_device(inst.kernel, inst.memory, config, observers=[trace])
        # Both SMs ran CTAs, so both issued the kernel's instructions.
        assert all(s.ctas_launched for s in stats.sm_stats)
        width = config.sm.warp_width
        issued = sorted({pc for _, _, pc, _, _, _ in trace.events})
        assert sorted(compiles) == [(pc, width) for pc in issued]
        # Later launches of the program compile nothing: a new instance
        # of the workload, and a copy of its kernel under other params.
        again = inst.fresh()
        assert again.kernel.program is inst.kernel.program
        simulate_device(again.kernel, again.memory, config)
        copy = get_workload("transpose", "tiny")
        simulate_device(copy.kernel.with_params(*copy.kernel.params), copy.memory, config)
        assert len(compiles) == len(issued)
