"""Every operand a compiled plan reads is a read-only warp-width row.

:mod:`repro.functional.compiled` builds each constant operand (an
immediate, a kernel parameter, ``ntid``/``nctaid``, a memory offset)
into a ``float64`` row once, at compile time, because a ufunc given a
scalar pays to convert it on every call.  These tests hold the shape of
that contract over every instruction of the suite:

* every operand getter — branch conditions included — and every guard
  register read yields a read-only ``float64`` array of the warp's
  width, at widths 32 and 64;
* no plan writes a constant row: running every workload leaves each
  row the compiler built bit-for-bit as it was built;
* rows are never shared by value: an immediate ``-0.0`` keeps its sign
  (``-0.0 == 0.0`` as a dict key, but ``1 / -0.0`` is ``-inf``).
"""

import numpy as np
import pytest

from repro.core import presets
from repro.core.simulator import simulate
from repro.functional import compiled
from repro.functional.executor import Executor, FunctionalWarp, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import reg
from repro.timing.masks import full_mask
from repro.workloads import ALL_WORKLOADS, get_workload

WIDTHS = (32, 64)


def _warp(kernel, width, cta=3, wid=5):
    return FunctionalWarp(
        LaunchRows(kernel, width), wid, 0, cta, SharedMemory(max(kernel.shared_bytes, 4))
    )


def _is_read_only_row(value, width):
    return (
        isinstance(value, np.ndarray)
        and value.dtype == np.float64
        and value.shape == (width,)
        and not value.flags.writeable
    )


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_every_operand_and_guard_is_a_read_only_row(workload, width):
    inst = get_workload(workload, "smoke")
    kernel = inst.kernel
    warp = _warp(kernel, width)
    for instr in kernel.program:
        compiled.compile_guarded(instr, kernel, inst.memory, width)
        operands = list(instr.srcs)
        if instr.pred is not None:
            operands.append(reg(instr.pred))  # the guard's register read
        for operand in operands:
            value = compiled._src_getter(operand, kernel, width)(warp)
            assert _is_read_only_row(value, width), (instr, operand, value)


@pytest.mark.parametrize("width", WIDTHS)
def test_special_registers_are_the_warps_rows(width):
    kb = KernelBuilder("specials")
    r = kb.reg("r")
    kb.mov(r, 0)
    kb.exit_()
    kernel = kb.build(cta_size=width, grid_size=7)
    warp = _warp(kernel, width, cta=3, wid=5)
    for name, expected in (
        ("ctaid", 3.0), ("warpid", 5.0), ("ntid", width), ("nctaid", 7.0)
    ):
        operand = getattr(kb, name)
        row = compiled._src_getter(operand, kernel, width)(warp)
        assert _is_read_only_row(row, width)
        assert (row == expected).all()


@pytest.mark.parametrize("policy", ["baseline", "warp64"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_no_plan_writes_a_constant_row(workload, policy, monkeypatch):
    built = []
    const_row = compiled.const_row

    def recording(value, width):
        row = const_row(value, width)
        built.append((row, row.tobytes()))
        return row

    monkeypatch.setattr(compiled, "const_row", recording)
    compiled.zero_row.cache_clear()  # rebuilt through the recorder
    try:
        inst = get_workload(workload, "smoke")
        simulate(inst.kernel, inst.memory, presets.by_name(policy))
    finally:
        compiled.zero_row.cache_clear()
    assert built
    for row, before in built:
        assert not row.flags.writeable
        assert row.tobytes() == before


def test_negative_zero_keeps_its_own_row():
    kb = KernelBuilder("signed_zero")
    a, b, c, d = kb.regs("a", "b", "c", "d")
    kb.mov(a, -0.0)
    kb.mov(b, 0.0)
    kb.rcp(c, a)
    kb.rcp(d, b)
    kb.exit_()
    kernel = kb.build(cta_size=32)
    neg, pos = (instr.srcs[0] for instr in kernel.program.instructions[:2])
    warp = _warp(kernel, 32)
    assert np.signbit(compiled._src_getter(neg, kernel, 32)(warp)).all()
    assert not np.signbit(compiled._src_getter(pos, kernel, 32)(warp)).any()
    executor = Executor(kernel, MemoryImage())
    with np.errstate(all="ignore"):
        for instr in kernel.program.instructions:
            executor.execute(instr, warp, full_mask(32))
    assert (warp.regs[kernel.program.instructions[2].dst] == -np.inf).all()
    assert (warp.regs[kernel.program.instructions[3].dst] == np.inf).all()
