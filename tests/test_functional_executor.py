"""Semantics of every opcode in the vectorised executor.

Every assertion runs on both plan makers: a compiled plan
(``compiled=True``) and the reference interpreter bound to the
instruction (``compiled=False``).  The instructions here are outside
the kernel's program, so each one gets a plan made for its call.
"""

import numpy as np
import pytest

from repro.functional.executor import ExecutionError, Executor, FunctionalWarp, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import Kernel, KernelBuilder
from repro.isa.instructions import CmpOp, Instruction, MemSpace, Op, imm, reg, special
from repro.isa.program import Program
from repro.timing.masks import full_mask

W = 8
FULL = full_mask(W)


@pytest.fixture(params=[True, False], ids=["compiled", "interp"])
def env(request):
    memory = MemoryImage(1 << 16)
    prog = Program([Instruction(Op.EXIT)])
    kernel = Kernel("t", prog, cta_size=W, grid_size=1, params=(2.0, 3.0), nregs=8)
    executor = Executor(kernel, memory, compiled=request.param)
    warp = FunctionalWarp(LaunchRows(kernel, W), 1, 0, 0, SharedMemory(256))
    return executor, warp, FULL, memory


def run_op(env, op, *srcs, dst=0, cmp=None, **kw):
    executor, warp, mask, _ = env
    instr = Instruction(op, dst=dst, srcs=srcs, cmp=cmp, **kw)
    executor.execute(instr, warp, mask)
    return warp.regs[dst]


class TestArithmetic:
    def test_mov_imm(self, env):
        out = run_op(env, Op.MOV, imm(7))
        assert np.all(out == 7)

    def test_add_sub_mul(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.arange(W)
        assert np.array_equal(run_op(env, Op.ADD, reg(1), imm(2)), np.arange(W) + 2)
        assert np.array_equal(run_op(env, Op.SUB, reg(1), imm(1)), np.arange(W) - 1)
        assert np.array_equal(run_op(env, Op.MUL, reg(1), imm(3)), np.arange(W) * 3)

    def test_mad(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.arange(W)
        out = run_op(env, Op.MAD, reg(1), imm(2), imm(5))
        assert np.array_equal(out, np.arange(W) * 2 + 5)

    def test_min_max_abs_neg_floor(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.array([-2.5, -1, 0, 1, 2.5, 3, -4, 5], dtype=float)
        assert np.all(run_op(env, Op.MIN, reg(1), imm(0)) <= 0)
        assert np.all(run_op(env, Op.MAX, reg(1), imm(0)) >= 0)
        assert np.all(run_op(env, Op.ABS, reg(1)) >= 0)
        assert np.array_equal(run_op(env, Op.NEG, reg(1)), -warp.regs[1])
        assert np.array_equal(run_op(env, Op.FLOOR, reg(1)), np.floor(warp.regs[1]))

    def test_integer_logic(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.arange(W)
        assert np.array_equal(run_op(env, Op.AND, reg(1), imm(1)), np.arange(W) & 1)
        assert np.array_equal(run_op(env, Op.OR, reg(1), imm(4)), np.arange(W) | 4)
        assert np.array_equal(run_op(env, Op.XOR, reg(1), imm(3)), np.arange(W) ^ 3)
        assert np.array_equal(run_op(env, Op.NOT, reg(1)), ~np.arange(W))
        assert np.array_equal(run_op(env, Op.SHL, reg(1), imm(2)), np.arange(W) << 2)
        assert np.array_equal(run_op(env, Op.SHR, reg(1), imm(1)), np.arange(W) >> 1)

    def test_conversions(self, env):
        _, warp, _, _ = env
        values = np.array([-2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5, 7.0])
        warp.regs[1] = values
        # F2I truncates towards zero; I2F passes the value through.
        assert np.array_equal(run_op(env, Op.F2I, reg(1)), np.trunc(values))
        assert np.array_equal(run_op(env, Op.I2F, reg(1)), values)

    def test_sel(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        out = run_op(env, Op.SEL, reg(1), imm(10), imm(20))
        assert np.array_equal(out, np.where(warp.regs[1] != 0, 10, 20))

    @pytest.mark.parametrize(
        "cmp,fn",
        [
            (CmpOp.LT, np.less),
            (CmpOp.LE, np.less_equal),
            (CmpOp.GT, np.greater),
            (CmpOp.GE, np.greater_equal),
            (CmpOp.EQ, np.equal),
            (CmpOp.NE, np.not_equal),
        ],
    )
    def test_setp(self, env, cmp, fn):
        _, warp, _, _ = env
        warp.regs[1] = np.arange(W)
        out = run_op(env, Op.SETP, reg(1), imm(4), cmp=cmp)
        assert np.array_equal(out, fn(np.arange(W), 4).astype(float))


class TestSFU:
    def test_rcp_div_sqrt(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.arange(1, W + 1, dtype=float)
        assert np.allclose(run_op(env, Op.RCP, reg(1)), 1.0 / warp.regs[1])
        assert np.allclose(run_op(env, Op.DIV, imm(2), reg(1)), 2.0 / warp.regs[1])
        assert np.allclose(run_op(env, Op.SQRT, reg(1)), np.sqrt(warp.regs[1]))
        assert np.allclose(run_op(env, Op.RSQRT, reg(1)), 1 / np.sqrt(warp.regs[1]))

    def test_transcendentals(self, env):
        _, warp, _, _ = env
        warp.regs[1] = np.linspace(0.1, 2.0, W)
        assert np.allclose(run_op(env, Op.SIN, reg(1)), np.sin(warp.regs[1]))
        assert np.allclose(run_op(env, Op.COS, reg(1)), np.cos(warp.regs[1]))
        assert np.allclose(run_op(env, Op.EX2, reg(1)), np.exp2(warp.regs[1]))
        assert np.allclose(run_op(env, Op.LG2, reg(1)), np.log2(warp.regs[1]))


class TestSpecials:
    def test_tid_and_params(self, env):
        out = run_op(env, Op.MOV, special("tid"))
        assert np.array_equal(out, np.arange(W))
        assert np.all(run_op(env, Op.MOV, special("param", 0)) == 2.0)
        assert np.all(run_op(env, Op.MOV, special("param", 1)) == 3.0)

    def test_geometry_specials(self, env):
        assert np.all(run_op(env, Op.MOV, special("ntid")) == W)
        assert np.all(run_op(env, Op.MOV, special("ctaid")) == 0)
        assert np.all(run_op(env, Op.MOV, special("nctaid")) == 1)
        assert np.all(run_op(env, Op.MOV, special("warpid")) == 1)

    def test_laneid_wraps_at_the_warp_width(self, env):
        executor, _, mask, _ = env
        kernel = Kernel("t", Program([Instruction(Op.EXIT)]), cta_size=2 * W, grid_size=1, nregs=8)
        # The CTA's second warp: tids W .. 2W - 1.
        warp = FunctionalWarp(LaunchRows(kernel, W), 1, 1, 0, SharedMemory(256))
        executor.execute(Instruction(Op.MOV, dst=0, srcs=(special("laneid"),)), warp, mask)
        assert np.array_equal(warp.regs[0], np.arange(W))

    def test_missing_param_raises(self, env):
        with pytest.raises(ExecutionError):
            run_op(env, Op.MOV, special("param", 7))


class TestMasking:
    def test_partial_mask_writes(self, env):
        executor, warp, _, _ = env
        instr = Instruction(Op.MOV, dst=0, srcs=(imm(9),))
        executor.execute(instr, warp, 0b01010101)
        assert np.all(warp.regs[0][::2] == 9)
        assert np.all(warp.regs[0][1::2] == 0)

    def test_predication(self, env):
        executor, warp, mask, _ = env
        warp.regs[3] = (np.arange(W) < 4).astype(float)
        instr = Instruction(Op.MOV, dst=0, srcs=(imm(5),), pred=3)
        out = executor.execute(instr, warp, mask)
        assert np.array_equal(out.active, np.arange(W) < 4)
        assert out.active_mask == 0b00001111
        assert np.all(warp.regs[0][:4] == 5) and np.all(warp.regs[0][4:] == 0)

    def test_negated_predication(self, env):
        executor, warp, mask, _ = env
        warp.regs[3] = (np.arange(W) < 4).astype(float)
        instr = Instruction(Op.MOV, dst=0, srcs=(imm(5),), pred=3, pred_neg=True)
        out = executor.execute(instr, warp, mask)
        assert np.array_equal(out.active, np.arange(W) >= 4)
        assert out.active_mask == 0b11110000


class TestBranchesAndMemory:
    def test_branch_taken_mask(self, env):
        executor, warp, mask, _ = env
        warp.regs[2] = (np.arange(W) % 2).astype(float)
        instr = Instruction(Op.BRA, srcs=(reg(2),), target=0)
        out = executor.execute(instr, warp, mask)
        assert np.array_equal(out.taken, np.arange(W) % 2 == 1)
        assert out.active_mask == mask

    def test_unconditional_branch_all_taken(self, env):
        executor, warp, mask, _ = env
        instr = Instruction(Op.BRA, target=0)
        out = executor.execute(instr, warp, mask)
        assert out.taken.all()

    def test_load_store_roundtrip(self, env):
        executor, warp, mask, memory = env
        base = memory.alloc(W * 4)
        warp.regs[1] = np.arange(W) * 4.0
        warp.regs[2] = np.arange(W) + 100.0
        st = Instruction(
            Op.ST, srcs=(imm(base), reg(1), reg(2)), space=MemSpace.GLOBAL
        )
        executor.execute(st, warp, mask)
        ld = Instruction(
            Op.LD, dst=3, srcs=(imm(base), reg(1)), space=MemSpace.GLOBAL
        )
        out = executor.execute(ld, warp, mask)
        assert np.array_equal(out.lane_addresses, base + np.arange(W) * 4)
        assert np.array_equal(warp.regs[3], np.arange(W) + 100.0)

    def test_partial_mask_reports_active_lane_addresses(self, env):
        executor, warp, _, memory = env
        base = memory.alloc(W * 4)
        warp.regs[1] = np.arange(W) * 4.0
        ld = Instruction(
            Op.LD, dst=3, srcs=(imm(base), reg(1)), space=MemSpace.GLOBAL
        )
        out = executor.execute(ld, warp, 0b10100100)
        assert np.array_equal(out.lane_addresses, base + np.array([2, 5, 7]) * 4)

    def test_static_offset_addressing(self, env):
        executor, warp, mask, memory = env
        base = memory.alloc(2 * W * 4)
        memory.write_array(base + 4, np.arange(W) + 7)
        warp.regs[1] = np.arange(W) * 4.0
        ld = Instruction(
            Op.LD, dst=3, srcs=(imm(base), reg(1)), offset=4, space=MemSpace.GLOBAL
        )
        executor.execute(ld, warp, mask)
        assert np.array_equal(warp.regs[3], np.arange(W) + 7)

    def test_shared_space_isolated_from_global(self, env):
        executor, warp, mask, memory = env
        warp.regs[1] = np.arange(W) * 4.0
        st = Instruction(Op.ST, srcs=(imm(0), reg(1), imm(42)), space=MemSpace.SHARED)
        executor.execute(st, warp, mask)
        assert np.all(warp.shared.read_array(0, W) == 42)
        assert np.all(memory.read_array(128, W) == 0)

    def test_atomic_add_returns_old(self, env):
        executor, warp, mask, memory = env
        base = memory.alloc(4)
        atom = Instruction(
            Op.ATOM_ADD, dst=4, srcs=(imm(base), imm(1.0)), space=MemSpace.GLOBAL
        )
        executor.execute(atom, warp, mask)
        # All 8 threads hit the same word: serialised old values 0..7.
        assert np.array_equal(np.sort(warp.regs[4]), np.arange(W))
        assert memory.read_array(base, 1)[0] == W

    @pytest.mark.parametrize("op,fold", [(Op.ATOM_MIN, min), (Op.ATOM_MAX, max)])
    def test_atomic_min_max_serialise_in_lane_order(self, env, op, fold):
        executor, warp, mask, memory = env
        base = memory.alloc(4)
        memory.write_array(base, np.array([4.0]))
        values = np.array([6.0, 3.0, 5.0, 1.0, 9.0, 2.0, 8.0, 0.5])
        warp.regs[2] = values
        atom = Instruction(op, dst=4, srcs=(imm(base), reg(2)), space=MemSpace.GLOBAL)
        executor.execute(atom, warp, mask)
        old = [4.0]
        for value in values[:-1]:
            old.append(fold(old[-1], value))
        assert np.array_equal(warp.regs[4], old)
        assert memory.read_array(base, 1)[0] == fold(old[-1], values[-1])


def _kernel_and_memory():
    """A program of every plan shape: ALU with constants and specials,
    predicated, a branch, a store, a load and an atomic."""
    kb = KernelBuilder("both_widths")
    v, p, a, c = kb.regs("v", "p", "a", "c")
    kb.add(v, kb.tid, 7)
    kb.setp(p, CmpOp.LT, kb.laneid, 9)
    kb.mul(v, v, 3, pred=p)
    kb.mad(a, kb.tid, 4, kb.param(0))
    kb.st(a, v)
    kb.ld(c, a)
    kb.atom_add(c, kb.param(1), v)
    kb.bra("done", cond=p)
    kb.label("done")
    kb.exit_()
    memory = MemoryImage()
    out, total = memory.alloc(4 * 64), memory.alloc(4)
    return kb.build(cta_size=64, grid_size=1, params=(out, total)), memory


def _run_two_widths(compiled):
    """One executor, a 32-wide and a 64-wide warp of the same kernel,
    then an instruction outside the program."""
    kernel, memory = _kernel_and_memory()
    executor = Executor(kernel, memory, compiled=compiled)
    warps = [
        FunctionalWarp(LaunchRows(kernel, width), 0, 0, 0, SharedMemory(64))
        for width in (32, 64)
    ]
    with np.errstate(all="ignore"):
        for warp in warps:
            for mask in (full_mask(warp.width), 0x0F0F0F0F, 0x1):
                for instr in kernel.program.instructions:
                    executor.execute(instr, warp, mask)
        foreign = Instruction(Op.MAD, dst=0, srcs=(special("laneid"), imm(2), reg(1)))
        for warp in warps:
            executor.execute(foreign, warp, 0x5)
    return [warp.regs.copy() for warp in warps], memory.words.copy()


def test_compiled_mode_never_reaches_the_interpreter(monkeypatch):
    regs_ref, mem_ref = _run_two_widths(compiled=False)

    def interpreted(*args):
        raise AssertionError("a compiled executor reached the interpreter")

    monkeypatch.setattr(Executor, "_execute_interp", interpreted)
    regs_fast, mem_fast = _run_two_widths(compiled=True)
    for fast, ref in zip(regs_fast, regs_ref):
        assert np.array_equal(fast, ref)
    assert np.array_equal(mem_fast, mem_ref)
