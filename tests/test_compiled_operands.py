"""Every operand a compiled plan reads is a read-only warp-width row.

:mod:`repro.functional.compiled` builds each constant operand of an
instruction (an immediate, a memory offset) into a ``float64`` row once,
at compile time, and a launch builds its own (a kernel parameter,
``ntid``/``nctaid``) once, in its
:class:`~repro.functional.executor.LaunchRows`, because a ufunc given a
scalar pays to convert it on every call.  These tests hold the shape of
that contract over every instruction of the suite:

* every operand getter — branch conditions included — and every guard
  register read yields a read-only ``float64`` array of the warp's
  width, at widths 32 and 64;
* no plan writes a constant row: running every workload leaves each
  row the compiler built bit-for-bit as it was built;
* no plan allocates: on those same runs numpy's array constructors
  refuse a plan closure as their caller, since a plan runs on every
  issue and what it needs is built once, by the function compiling it;
* rows are never shared by value: an immediate ``-0.0`` keeps its sign
  (``-0.0 == 0.0`` as a dict key, but ``1 / -0.0`` is ``-inf``).
"""

import inspect
import sys
import types

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
        LaunchRows(kernel, width, MemoryImage()), wid, 0, cta,
        SharedMemory(max(kernel.shared_bytes, 4)),
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
        compiled.compile_guarded(instr, width)
        operands = list(instr.srcs)
        if instr.pred is not None:
            operands.append(reg(instr.pred))  # the guard's register read
        for operand in operands:
            value = compiled._src_getter(operand, width)(warp)
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
        row = compiled._src_getter(operand, width)(warp)
        assert _is_read_only_row(row, width)
        assert (row == expected).all()


#: numpy's constructors that allocate a fresh array on every call, each
#: with the arguments of one such call.
ALLOCATORS = {
    "zeros": (4,), "ones": (4,), "empty": (4,), "full": (4, 1.0), "arange": (4,),
    "eye": (4,), "linspace": (0.0, 1.0, 4), "tile": ([1.0], 4),
}


def numpy_refusing_plan_allocation(allowed):
    """A stand-in for :mod:`repro.functional.compiled`'s ``np`` whose
    :data:`ALLOCATORS` raise when called from a plan closure, i.e. from
    any function of that module but a module-level one (the compile
    time); each allowed call's caller goes on ``allowed``."""
    compile_time = {
        inspect.unwrap(f).__code__
        for f in vars(compiled).values()
        if inspect.isfunction(inspect.unwrap(f)) and f.__module__ == compiled.__name__
    }
    guarded = types.ModuleType(np.__name__)
    guarded.__dict__.update(vars(np))

    def refusing(name):
        allocate = getattr(np, name)

        def call(*args, **kwargs):
            caller = sys._getframe(1).f_code
            if caller.co_filename == compiled.__file__ and caller not in compile_time:
                raise AssertionError(
                    "np.%s allocates in the compiled plan %s, once per issue"
                    % (name, caller.co_name)
                )
            allowed.append(caller.co_name)
            return allocate(*args, **kwargs)

        return call

    for name in ALLOCATORS:
        setattr(guarded, name, refusing(name))
    return guarded


@pytest.mark.parametrize("name,args", sorted(ALLOCATORS.items()))
def test_the_stand_in_refuses_an_allocation_in_a_plan(name, args):
    """What makes the test below a test: a closure of
    ``repro.functional.compiled`` calling an allocator raises; the same
    call from elsewhere allocates."""
    guarded = numpy_refusing_plan_allocation([])
    source = "def compile_it():\n    def plan():\n        return np.%s(*args)\n    return plan\n"
    namespace = {"np": guarded, "args": args}
    exec(compile(source % name, compiled.__file__, "exec"), namespace)
    plan = namespace["compile_it"]()
    with pytest.raises(AssertionError, match=r"np\.%s allocates in the compiled plan plan" % name):
        plan()
    assert getattr(guarded, name)(*args).size


@pytest.mark.parametrize("policy", ["baseline", "warp64"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_no_plan_writes_a_constant_row(workload, policy, monkeypatch):
    allocated = []
    monkeypatch.setattr(compiled, "np", numpy_refusing_plan_allocation(allocated))
    built = []
    const_row = compiled.const_row

    def recording(value, width):
        row = const_row(value, width)
        built.append((row, row.tobytes()))
        return row

    monkeypatch.setattr(compiled, "const_row", recording)
    compiled.zero_row.cache_clear()  # rebuilt through the recorder
    compiled._constant_of.cache_clear()
    try:
        inst = get_workload(workload, "smoke")
        # Plans are kept by the program, which outlives a run: forget
        # them, so every one is compiled here, under the stand-ins.
        inst.kernel.program.plans.clear()
        simulate(inst.kernel, inst.memory, presets.by_name(policy))
    finally:
        compiled.zero_row.cache_clear()
        compiled._constant_of.cache_clear()
    assert built and "const_row" in allocated  # the stand-in saw the compiler
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
    assert np.signbit(compiled._src_getter(neg, 32)(warp)).all()
    assert not np.signbit(compiled._src_getter(pos, 32)(warp)).any()
    executor = Executor(kernel)
    with np.errstate(all="ignore"):
        for instr in kernel.program.instructions:
            executor.execute(instr, warp, full_mask(32))
    assert (warp.regs[kernel.program.instructions[2].dst] == -np.inf).all()
    assert (warp.regs[kernel.program.instructions[3].dst] == np.inf).all()
