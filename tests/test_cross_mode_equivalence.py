"""The reproduction's central invariant: scheduling never changes
semantics.

Randomly generated kernels with nested data-dependent control flow,
loops, barriers and memory traffic must leave global memory in exactly
the state the reference interpreter produces — under every scheduler
mode (baseline stack, Warp64 frontier, SBI, SWI, SBI+SWI), every lane
shuffle, and with constraints on or off.
"""

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.core import presets
from repro.core.simulator import simulate
from repro.functional.interp import run_kernel
from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp

N_THREADS = 64
CTA = 32


def _emit_body(kb, draw, regs, depth):
    """Emit a random structured body mutating register ``v``."""
    v, t, p, c, tmp = regs
    n_items = draw(st.integers(1, 3))
    for _ in range(n_items):
        kind = draw(
            st.sampled_from(
                ["arith", "arith", "ifelse", "loop"] if depth < 2 else ["arith"]
            )
        )
        if kind == "arith":
            op = draw(st.sampled_from(["mad", "add", "xor_t", "mul"]))
            if op == "mad":
                kb.mad(v, v, 3, 1)
            elif op == "add":
                kb.add(v, v, t)
            elif op == "xor_t":
                kb.xor(tmp, t, draw(st.integers(0, 7)))
                kb.add(v, v, tmp)
            else:
                kb.mul(v, v, 2)
        elif kind == "ifelse":
            bit = draw(st.integers(0, 4))
            has_else = draw(st.booleans())
            else_l = kb.label_name = "L%d" % id(object())  # unique
            else_l = kb._labels and None  # noqa: appease linters
            lbl_else = "e%d" % kb._label_counter
            lbl_join = "j%d" % (kb._label_counter + 1)
            kb._label_counter += 2
            kb.shr(tmp, t, bit)
            kb.and_(tmp, tmp, 1)
            kb.bra(lbl_else, cond=tmp)
            _emit_body(kb, draw, regs, depth + 1)
            if has_else:
                kb.bra(lbl_join)
                kb.label(lbl_else)
                _emit_body(kb, draw, regs, depth + 1)
                kb.label(lbl_join)
            else:
                kb.label(lbl_else)
        else:  # loop with data-dependent trip count
            lbl = "lp%d" % kb._label_counter
            kb._label_counter += 1
            kb.and_(c, t, draw(st.integers(1, 3)))
            kb.add(c, c, 1)
            kb.label(lbl)
            _emit_body(kb, draw, regs, depth + 2)
            kb.sub(c, c, 1)
            kb.setp(p, CmpOp.GT, c, 0)
            kb.bra(lbl, cond=p)


@st.composite
def kernels(draw):
    kb = KernelBuilder("hyp", nregs=12)
    regs = kb.regs("v", "t", "p", "c", "tmp")
    v, t, p, c, tmp = regs
    addr = kb.reg("addr")
    kb.mov(t, kb.tid)
    kb.mad(t, kb.ctaid, kb.ntid, t)
    kb.mov(v, 1.0)
    with_bar = draw(st.booleans())
    _emit_body(kb, draw, regs, 0)
    if with_bar:
        kb.bar()
        _emit_body(kb, draw, regs, 1)
    kb.and_(tmp, v, (1 << 30) - 1)  # keep values integer-exact
    kb.mul(addr, t, 4)
    kb.st(kb.param(0), tmp, index=addr)
    kb.exit_()
    return kb


def _build(kb):
    memory = MemoryImage()
    out = memory.alloc(N_THREADS * 4)
    kernel = kb.build(
        cta_size=CTA, grid_size=N_THREADS // CTA, params=(out,)
    )
    return kernel, memory, out


def _small(config):
    return config.replace(warp_count=max(4, config.warp_count // 4))


CONFIGS = {
    "baseline": lambda: _small(presets.baseline()),
    "warp64": lambda: _small(presets.warp64()),
    "sbi": lambda: _small(presets.sbi()),
    "sbi_nc": lambda: _small(presets.sbi(sbi_constraints=False)),
    "swi": lambda: _small(presets.swi()),
    "swi_dm": lambda: _small(presets.swi(swi_ways=1, lane_shuffle="xor")),
    "sbi_swi": lambda: _small(presets.sbi_swi()),
}


class TestCrossModeEquivalence:
    @given(kernels())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_all_modes_match_reference(self, kb):
        kernel, ref_mem, out = _build(kb)
        run_kernel(kernel, ref_mem)
        expected = ref_mem.read_array(out, N_THREADS)
        for name, factory in CONFIGS.items():
            kernel2, mem2, out2 = _build(kb)
            stats = simulate(kernel2, mem2, factory())
            got = mem2.read_array(out2, N_THREADS)
            assert np.array_equal(got, expected), (
                "mode %s diverged from the reference" % name
            )
            assert stats.cycles > 0

    @given(kernels())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_thread_instructions_mode_invariant(self, kb):
        """Total per-thread work is an architectural property: identical
        across all schedulers (issue counts may differ)."""
        counts = set()
        for factory in (CONFIGS["baseline"], CONFIGS["sbi"], CONFIGS["sbi_swi"]):
            kernel, mem, _ = _build(kb)
            stats = simulate(kernel, mem, factory())
            counts.add(stats.thread_instructions)
        assert len(counts) == 1
