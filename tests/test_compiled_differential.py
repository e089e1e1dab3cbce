"""Differential pin of the compiled executor against the interpreter.

The compiled instruction plans (:mod:`repro.functional.compiled`) must
be architecturally invisible: every workload, every mode, byte-identical
:class:`~repro.timing.stats.Stats` and identical memory images between
``compiled=True`` (the default) and the reference interpreter
(``compiled=False``).

``tests/data/golden_smoke.json`` pins the *compiled* path (it is the
default everywhere, including ``test_policy_registry``'s golden run),
so checking the reference path against the same golden SHAs proves
both directions at half the simulation cost.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import presets
from repro.core.simulator import simulate
from repro.workloads import ALL_WORKLOADS, get_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_smoke.json")


def _sha(stats) -> str:
    return hashlib.sha256(
        json.dumps(stats.to_dict(), sort_keys=True).encode()
    ).hexdigest()


class TestReferencePathMatchesGolden:
    """The interpreter reproduces the compiled path's pinned stats over
    all 21 workloads x 5 modes at smoke size."""

    @pytest.mark.parametrize("mode", presets.FIGURE7_CONFIGS)
    def test_mode_matches_golden(self, mode):
        with open(GOLDEN) as f:
            golden = json.load(f)["cells"]
        config = presets.by_name(mode)
        for workload in ALL_WORKLOADS:
            expected = golden["%s/%s" % (workload, mode)]
            inst = get_workload(workload, "smoke")
            stats = simulate(inst.kernel, inst.memory, config, compiled=False)
            assert _sha(stats) == expected["stats_sha"], workload


class TestDirectDifferential:
    """Head-to-head on one irregular workload: identical stats *and*
    identical architectural memory, for every mode."""

    @pytest.mark.parametrize("mode", presets.FIGURE7_CONFIGS)
    def test_stats_and_memory_identical(self, mode):
        config = presets.by_name(mode)
        fast = get_workload("bfs", "smoke")
        fast_stats = simulate(fast.kernel, fast.memory, config, compiled=True)
        ref = get_workload("bfs", "smoke")
        ref_stats = simulate(ref.kernel, ref.memory, config, compiled=False)
        assert fast_stats.to_dict() == ref_stats.to_dict()
        assert np.array_equal(fast.memory.words, ref.memory.words)


class TestExecutorUnitDifferential:
    """Both paths agree instruction-by-instruction under partial and
    predicated masks (the cases the full-warp fast path must not
    mishandle)."""

    def _run(self, compiled):
        from repro.functional.executor import Executor, FunctionalWarp, LaunchRows
        from repro.functional.memory import MemoryImage, SharedMemory
        from repro.isa.builder import KernelBuilder
        from repro.isa.instructions import CmpOp
        from repro.timing.masks import full_mask

        kb = KernelBuilder("diff")
        v, p, a = kb.regs("v", "p", "a")
        kb.add(v, kb.tid, 7)
        kb.setp(p, CmpOp.LT, kb.tid, 9)
        kb.mul(v, v, 3, pred=p)
        kb.mad(a, kb.tid, 4, kb.param(0))
        kb.st(a, v)
        kb.ld(v, a)
        kb.exit_()
        mem = MemoryImage()
        out = mem.alloc(4096)
        kernel = kb.build(cta_size=32, grid_size=1, params=(out,))
        ex = Executor(kernel, compiled=compiled)
        warp = FunctionalWarp(LaunchRows(kernel, 32, mem), 0, 0, 0, SharedMemory(64))
        masks = [full_mask(32), 0x0F0F0F0F, 0x1]
        for instr in kernel.program.instructions:
            for mask in masks:
                out_ = ex.execute(instr, warp, mask)
                # None: an unpredicated instruction ran for exactly mask.
                assert out_ is None or out_.active_mask is not None
        return warp.regs.copy(), mem.words.copy()

    def test_masked_execution_identical(self):
        regs_fast, mem_fast = self._run(True)
        regs_ref, mem_ref = self._run(False)
        assert np.array_equal(regs_fast, regs_ref)
        assert np.array_equal(mem_fast, mem_ref)
