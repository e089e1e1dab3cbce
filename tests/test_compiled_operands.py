"""Every operand a compiled plan reads is a read-only warp-width row.

:mod:`repro.functional.compiled` builds each constant operand of an
instruction (an immediate, a memory offset) into a ``float64`` row once,
at compile time, and a launch builds its own (a kernel parameter,
``ntid``/``nctaid``) once, in its
:class:`~repro.functional.executor.LaunchRows`, because a ufunc given a
scalar pays to convert it on every call.  These tests hold the shape of
that contract over every instruction of the suite:

* every row a plan's source reads off the warp — operands, branch
  conditions and the guard register — and every ``float64`` array it
  closes over is a read-only ``float64`` array of the warp's width, at
  widths 32 and 64;
* no plan writes a constant row: running every workload leaves each
  row the compiler built bit-for-bit as it was built;
* no plan allocates: on those same runs numpy's array constructors
  refuse a plan as their caller, since a plan runs on every issue and
  what it needs is built once, by the function compiling it;
* rows are never shared by value: an immediate ``-0.0`` keeps its sign
  (``-0.0 == 0.0`` as a dict key, but ``1 / -0.0`` is ``-inf``);
* the generator is closed: a plan's source is a function of its
  instruction's shape, names no value of the instruction, and an
  operand it does not know is refused before anything is compiled.
"""

import ast
import dataclasses
import inspect
import io
import sys
import tokenize
import types

import numpy as np
import pytest

from repro.core import presets
from repro.core.simulator import simulate
from repro.functional import compiled
from repro.functional.compiled import ExecutionError
from repro.functional.executor import Executor, FunctionalWarp, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Instruction, Op, Operand, OperandKind, imm, reg, special
from repro.timing.masks import full_mask
from repro.workloads import ALL_WORKLOADS, get_workload

WIDTHS = (32, 64)

#: What a plan reads off the warp that is not an operand row: the two
#: memories.
_MEMORIES = ("memory", "shared")


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


def _warp_attribute(node):
    """``node``'s attribute name if it is ``fw.<name>``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "fw" else None
    return None


def plan_reads(instr, width, warp):
    """Every operand row ``instr``'s plan reads, evaluated on ``warp``,
    each once: each expression of the generated source that reads off
    the warp (``fw.<table>[...]`` or ``fw.<row>``; not what it writes,
    nor a memory), then each non-bool array the plan closes over."""
    source, bind = compiled._source(instr, width)
    tree = ast.parse(source)
    skip = set()  # the nodes of a write target, and each table a read indexes
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            skip.update(map(id, ast.walk(node.targets[-1])))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "copyto":
            skip.update(map(id, ast.walk(node.args[0])))
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            skip.add(id(node.value))
    reads = [
        eval(compile(ast.Expression(node), "<read>", "eval"), {"fw": warp}, bind)
        for node in ast.walk(tree)
        if id(node) not in skip and (
            (isinstance(node, ast.Subscript) and _warp_attribute(node.value) is not None)
            or _warp_attribute(node) not in (None,) + _MEMORIES
        )
    ]
    reads += [
        value for value in bind.values()
        if isinstance(value, np.ndarray) and value.dtype != bool
    ]
    return list({id(value): value for value in reads}.values())


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_every_operand_and_guard_is_a_read_only_row(workload, width):
    inst = get_workload(workload, "smoke")
    kernel = inst.kernel
    warp = _warp(kernel, width)
    for instr in kernel.program:
        reads = plan_reads(instr, width, warp)
        # Each operand and the guard register is read (one row however
        # often the source names it).
        named = {(s.kind, s.value) for s in instr.srcs}
        if instr.pred is not None:
            named.add((OperandKind.REG, instr.pred))
        assert len(reads) >= len(named), instr
        for value in reads:
            assert _is_read_only_row(value, width), (instr, value)


@pytest.mark.parametrize("width", WIDTHS)
def test_special_registers_are_the_warps_rows(width):
    kb = KernelBuilder("specials")
    r = kb.reg("r")
    kb.mov(r, 0)
    kb.exit_()
    kernel = kb.build(cta_size=width, grid_size=7)
    warp = _warp(kernel, width, cta=3, wid=5)
    for name, attr, expected in (
        ("ctaid", "ctaid_f64", 3.0), ("warpid", "warpid_f64", 5.0),
        ("ntid", "ntid_f64", width), ("nctaid", "nctaid_f64", 7.0),
        ("tid", "tids_f64", np.arange(width)), ("laneid", "lanes_f64", np.arange(width)),
    ):
        instr = Instruction(Op.MOV, dst=0, srcs=(getattr(kb, name),))
        (row,) = plan_reads(instr, width, warp)
        assert row is getattr(warp, attr)
        assert _is_read_only_row(row, width)
        assert (row == expected).all()
    instr = Instruction(Op.MOV, dst=0, srcs=(special("param", 0),))
    warp = _warp(kb.build(cta_size=width, params=(2.5,)), width)
    (row,) = plan_reads(instr, width, warp)
    assert row is warp.params[0] and _is_read_only_row(row, width)


#: numpy's constructors that allocate a fresh array on every call, each
#: with the arguments of one such call.
ALLOCATORS = {
    "zeros": (4,), "ones": (4,), "empty": (4,), "full": (4, 1.0), "arange": (4,),
    "eye": (4,), "linspace": (0.0, 1.0, 4), "tile": ([1.0], 4),
}


def numpy_refusing_plan_allocation(allowed):
    """A stand-in for :mod:`repro.functional.compiled`'s ``np`` whose
    :data:`ALLOCATORS` raise when called from a plan, i.e. from any
    code under that module's file name but a module-level function (the
    compile time): the generated plans and their factories are
    compiled under it; each allowed call's caller goes on
    ``allowed``."""
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
    compiled._row_of.cache_clear()  # rebuilt through the recorder
    try:
        inst = get_workload(workload, "smoke")
        # Plans are kept by the program, which outlives a run: forget
        # them, so every one is compiled here, under the stand-ins.
        inst.kernel.program.plans.clear()
        simulate(inst.kernel, inst.memory, presets.by_name(policy))
    finally:
        compiled._row_of.cache_clear()
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
    warp = _warp(kernel, 32)
    movs = kernel.program.instructions[:2]
    ((neg,), (pos,)) = (plan_reads(instr, 32, warp) for instr in movs)
    assert np.signbit(neg).all() and neg is compiled.imm_row(-0.0, 32)
    assert not np.signbit(pos).any() and pos is compiled.imm_row(0.0, 32)
    executor = Executor(kernel)
    with np.errstate(all="ignore"):
        for instr in kernel.program.instructions:
            executor.execute(instr, warp, full_mask(32))
    assert (warp.regs[kernel.program.instructions[2].dst] == -np.inf).all()
    assert (warp.regs[kernel.program.instructions[3].dst] == np.inf).all()


def test_generated_plans_are_guarded_as_this_modules_code(monkeypatch):
    """A generated plan carries this module's file name and is no
    module-level function, so the stand-in refuses an allocation in it:
    a generator template allocating per issue fails the test above."""
    instr = Instruction(Op.ADD, dst=0, srcs=(reg(1), imm(2)))
    plan = compiled.compile_plan(instr, 32)
    assert plan.__code__.co_filename == compiled.__file__
    monkeypatch.setattr(compiled, "_FACTORIES", {})
    monkeypatch.setitem(compiled._RESULTS, Op.ADD, "np.zeros(width) + {0} + {1}")
    allocating = compiled.compile_plan(instr, 32)
    monkeypatch.setattr(compiled, "np", numpy_refusing_plan_allocation([]))
    warp = _warp(get_workload("transpose", "smoke").kernel, 32)
    with pytest.raises(AssertionError, match=r"np\.zeros allocates in the compiled plan plan_add"):
        allocating(warp, full_mask(32))


@pytest.mark.parametrize("name", ["tid + 1", "__import__('os')", "param", "bogus", 7])
def test_an_unknown_special_is_refused_before_anything_compiles(name, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the generator compiled a source naming %r" % (name,))

    monkeypatch.setattr(compiled, "compile", refused, raising=False)
    monkeypatch.setattr(compiled, "exec", refused, raising=False)
    instr = Instruction(Op.MOV, dst=0, srcs=(Operand(OperandKind.SPECIAL, name),))
    with pytest.raises(ExecutionError, match="unknown special"):
        compiled.compile_plan(instr, 32)


def _renumbered(instr):
    """``instr`` with every value moved, every kind kept: other
    registers, immediates, parameter indices and offset."""
    def moved(operand):
        if operand.kind is OperandKind.REG:
            return reg(operand.value + 1)
        if operand.kind is OperandKind.IMM:
            return imm(operand.value * 3 + 1.25)
        if isinstance(operand.value, tuple):
            return special("param", operand.value[1] + 2)
        return operand

    return dataclasses.replace(
        instr,
        srcs=tuple(moved(s) for s in instr.srcs),
        dst=None if instr.dst is None else instr.dst + 2,
        pred=None if instr.pred is None else instr.pred + 3,
        offset=instr.offset and instr.offset + 64,
    )


@pytest.mark.parametrize("width", WIDTHS)
def test_a_plans_source_is_its_shape(width):
    """Only fixed identifiers reach the source: no literal at all, and
    the same text for every instruction of one shape."""
    shapes = set()
    for workload in ALL_WORKLOADS:
        for instr in get_workload(workload, "smoke").kernel.program:
            source, bind = compiled._source(instr, width)
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            literals = [t.string for t in tokens if t.type in (tokenize.NUMBER, tokenize.STRING)]
            assert not literals, (instr, literals)
            twin, twin_bind = compiled._source(_renumbered(instr), width)
            assert twin == source and twin_bind.keys() == bind.keys(), instr
            shapes.add(source)
    assert 20 < len(shapes) < 200
