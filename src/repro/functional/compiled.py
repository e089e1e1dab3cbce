"""Compiled instruction plans: per-instruction specialised closures.

The reference interpreter (``Executor(..., compiled=False)``) resolves
operands and dispatches on the opcode *per issue* — a string/kind
switch through ``_value`` and a ~30-branch if-chain in ``_compute``.
Kernels execute the same few static instructions millions of times, so
all of that work can be done once per instruction at kernel load:

* operand access is pre-resolved into a getter closure (register row,
  pre-built constant row, per-warp special-register row);
* the op's compute function, comparison operator, memory space and
  atomic kind are bound directly;
* the predicate guard is compiled in only when the instruction is
  predicated.

Every closure reproduces the reference interpreter's numpy expressions
(same dtypes, same operation order, the same IEEE operation on every
lane), so the two paths produce bit-identical architectural state —
pinned by the differential test over all 21 workloads and the golden
smoke matrix, and opcode by opcode by ``tests/test_functional_executor.py``,
which runs every assertion on both plan makers.

**Every operand is a warp-width array.**  An immediate, a kernel
parameter, ``ntid``/``nctaid`` and a memory offset become read-only
``float64`` rows built once at compile time (``ctaid``/``warpid`` are
rows of the :class:`~repro.functional.executor.FunctionalWarp`), and
branch conditions, guards and ``SEL`` compare against one zero row.
A ufunc given a numpy or Python scalar pays for converting and
promoting it on every call: at 64 lanes, array ⊕ ``np.float64``
costs 1.6 times array ⊕ array, and ``row != 0`` 1.8 times
``row != zeros`` (numpy 2.4; README's performance section has the
figures).  The rows are read-only, so no plan can write a
constant another plan reads, and they are never shared by value: an
immediate ``-0.0`` gets its own row (``-0.0 == 0.0`` as a dict key,
not as an operand of ``1 / x``).

The only deliberate shortcut is the *full-warp fast path*: when the
effective mask is the interned all-active array (identity comparison
against :func:`repro.timing.masks.mask_to_bools` of the full mask),
masked scatters/gathers degenerate to whole-row operations, which
assign exactly the same elements.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel
from repro.isa.instructions import (
    CmpOp,
    Instruction,
    MemSpace,
    Op,
    Operand,
    OperandKind,
)
from repro.timing.masks import bools_to_indices, full_mask, mask_to_bools


class ExecutionError(Exception):
    """Raised on semantic errors (bad operand counts, unknown ops...)."""


@dataclass(slots=True)
class ExecOutcome:
    """Result of executing one instruction under a mask.

    ``active`` is the effective mask (issue mask AND predicate); for
    branches ``taken`` holds the per-thread outcome over the full warp
    (only meaningful where ``active``); memory operations expose
    ``lane_addresses`` — the active lanes' byte addresses in ascending
    lane order, the vector the access itself gathered and the one the
    timing model coalesces.  ``active_mask`` is the bit-mask form of
    ``active``, filled by :meth:`Executor.execute
    <repro.functional.executor.Executor.execute>` so the timing model
    never converts a bool array back to an integer on the hot path.
    """

    active: np.ndarray
    taken: Optional[np.ndarray] = None
    lane_addresses: Optional[np.ndarray] = None
    active_mask: Optional[int] = None


def _int_binop(op) -> Callable:
    """``op`` on the int64 values of two rows, back to float64 (``op``
    is an :mod:`operator` function: no Python frame of its own)."""
    return lambda a, b: op(a.astype(np.int64), b.astype(np.int64)).astype(np.float64)


_CMP_FUNCS = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}

#: op -> f(*src_values), mirroring ``Executor._compute`` case by case
#: (the ops with a constant of their own are in :func:`_compute_for`).
_COMPUTE_FUNCS = {
    Op.MOV: lambda a: a,
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.MAD: lambda a, b, c: a * b + c,
    Op.MIN: np.minimum,
    Op.MAX: np.maximum,
    Op.AND: _int_binop(operator.and_),
    Op.OR: _int_binop(operator.or_),
    Op.XOR: _int_binop(operator.xor),
    Op.NOT: lambda a: (~a.astype(np.int64)).astype(np.float64),
    Op.SHL: _int_binop(operator.lshift),
    Op.SHR: _int_binop(operator.rshift),
    Op.ABS: np.abs,
    Op.NEG: operator.neg,
    Op.FLOOR: np.floor,
    Op.I2F: lambda a: a,
    Op.F2I: np.trunc,
    Op.DIV: operator.truediv,
    Op.SQRT: np.sqrt,
    Op.SIN: np.sin,
    Op.COS: np.cos,
    Op.EX2: np.exp2,
    Op.LG2: np.log2,
}

_ATOM_OPS = {Op.ATOM_ADD: "add", Op.ATOM_MIN: "min", Op.ATOM_MAX: "max"}


def const_row(value, width: int) -> np.ndarray:
    """A read-only ``float64`` row holding ``value`` in every lane,
    converted as the interpreter converts it (``np.float64(value)``)."""
    row = np.full(width, np.float64(value), dtype=np.float64)
    row.setflags(write=False)
    return row


@lru_cache(maxsize=None)
def zero_row(width: int) -> np.ndarray:
    """The one zero row per warp width: what branch conditions, guards
    and ``SEL`` compare against."""
    return const_row(0.0, width)


def _constant(value, width: int) -> Callable:
    row = const_row(value, width)
    return lambda fw: row


def _src_getter(operand: Operand, kernel: Kernel, width: int) -> Callable:
    """Pre-resolved operand access: ``getter(fwarp) -> row``, always a
    read-only ``float64`` array of ``width`` lanes."""
    kind = operand.kind
    if kind is OperandKind.REG:
        index = operand.value
        return lambda fw: fw.rows[index]
    if kind is OperandKind.IMM:
        return _constant(operand.value, width)
    name = operand.value
    if isinstance(name, tuple):  # ("param", i)
        index = name[1]
        if index >= len(kernel.params):
            raise ExecutionError(
                "kernel %s launched with %d params, wants param%d"
                % (kernel.name, len(kernel.params), index)
            )
        return _constant(kernel.params[index], width)
    if name == "tid":
        return lambda fw: fw.tids_f64
    if name == "ctaid":
        return lambda fw: fw.ctaid_f64
    if name == "ntid":
        return _constant(kernel.cta_size, width)
    if name == "nctaid":
        return _constant(kernel.grid_size, width)
    if name == "laneid":
        return lambda fw: fw.lanes_f64
    if name == "warpid":
        return lambda fw: fw.warpid_f64
    raise ExecutionError("unknown special %r" % (name,))


def _compute_for(instr: Instruction, width: int) -> Optional[Callable]:
    """``instr``'s compute function; those with a constant of their own
    (``SEL``'s zero, ``RCP``/``RSQRT``'s one) close over its row."""
    op = instr.op
    if op is Op.SETP:
        cmp_fn = _CMP_FUNCS.get(instr.cmp)
        if cmp_fn is None:
            raise ExecutionError("unknown comparison %r" % instr.cmp)
        return lambda a, b: cmp_fn(a, b).astype(np.float64)
    if op is Op.SEL:
        zeros = zero_row(width)
        return lambda c, a, b: np.where(c != zeros, a, b)
    if op is Op.RCP:
        ones = const_row(1.0, width)
        return lambda a: ones / a
    if op is Op.RSQRT:
        ones = const_row(1.0, width)
        return lambda a: ones / np.sqrt(a)
    return _COMPUTE_FUNCS.get(op)


def compile_instruction(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int
) -> Callable:
    """Specialise ``instr`` into ``plan(fwarp, active_bools)``.

    ``active_bools`` is the already-predicated execution mask; the
    predicate guard (when present) is compiled into the returned plan
    by :func:`compile_guarded`.  A plan returns an ``ExecOutcome``
    when it has something to report (a branch its ``taken`` vector, a
    memory access its lane addresses), else ``None``.
    """
    op = instr.op
    full_arr = mask_to_bools(full_mask(width), width)

    if op is Op.BRA:
        if instr.srcs:
            get_cond = _src_getter(instr.srcs[0], kernel, width)
            # ``== 0`` is exactly ``~(!= 0)``, NaN lanes included: one
            # comparison either way, against the zero row.
            compare = np.equal if instr.pred_neg else np.not_equal
            zeros = zero_row(width)
            return lambda fw, active: ExecOutcome(
                active=active, taken=compare(get_cond(fw), zeros)
            )
        ones = np.ones(width, dtype=bool)
        ones.setflags(write=False)
        return lambda fw, active: ExecOutcome(active=active, taken=ones)

    if op in (Op.BAR, Op.EXIT, Op.NOP):
        return lambda fw, active: None

    if instr.is_memory:
        return _compile_memory(instr, kernel, memory, width, full_arr)

    # Arithmetic / logic / transcendental.  ``np.errstate`` is *not*
    # entered per issue (it costs more than the compute for warp-sized
    # arrays); the run loop, ``GPUDevice.run``, enters it once instead.
    compute = _compute_for(instr, width)
    if compute is None:
        raise ExecutionError("unhandled op %r" % op)
    getters = tuple(_src_getter(s, kernel, width) for s in instr.srcs)
    dst = instr.dst

    # Arity-specialised source evaluation (the list-comprehension splat
    # costs ~20% of a small-array numpy op per issue).
    if len(getters) == 1:
        g0 = getters[0]
        values = lambda fw: compute(g0(fw))
    elif len(getters) == 2:
        g0, g1 = getters
        values = lambda fw: compute(g0(fw), g1(fw))
    elif len(getters) == 3:
        g0, g1, g2 = getters
        values = lambda fw: compute(g0(fw), g1(fw), g2(fw))
    else:
        values = lambda fw: compute(*[g(fw) for g in getters])

    if dst is None:
        def plan(fw, active):
            values(fw)

        return plan

    copyto = np.copyto

    def plan(fw, active):
        if active is full_arr:
            # A row assignment, not ``copyto``: that would run numpy's
            # Python-level array-function dispatcher once per issue.
            fw.regs[dst] = values(fw)
        else:
            # Same elementwise writes as the interpreter's
            # broadcast-then-scatter, in one numpy call.
            copyto(fw.regs[dst], values(fw), where=active)

    return plan


def _compile_memory(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int, full_arr
) -> Callable:
    op = instr.op
    shared = instr.space is MemSpace.SHARED
    get_base = _src_getter(instr.srcs[0], kernel, width)
    n_addr_srcs = len(instr.srcs) - (1 if instr.writes_memory else 0)
    get_index = (
        _src_getter(instr.srcs[1], kernel, width) if n_addr_srcs >= 2 else None
    )
    dst = instr.dst

    # (base + index) + offset, the interpreter's order, on float64 rows
    # (the offset too); the final astype always copies, so no
    # defensive copy up front.
    if instr.offset:
        offset = const_row(instr.offset, width)
        if get_index is None:
            addresses = lambda fw: (get_base(fw) + offset).astype(np.int64)
        else:
            addresses = lambda fw: (
                get_base(fw) + get_index(fw) + offset
            ).astype(np.int64)
    elif get_index is None:
        addresses = lambda fw: get_base(fw).astype(np.int64)
    else:
        addresses = lambda fw: (get_base(fw) + get_index(fw)).astype(np.int64)

    if op is Op.LD:
        if dst is None:
            raise ExecutionError("load without destination")

        def plan(fw, active):
            lanes = addrs = addresses(fw)
            mem = fw.shared if shared else memory
            if active is full_arr:
                fw.regs[dst] = mem.load(addrs)
            else:
                # Index-array gather/scatter touches the same elements
                # as the interpreter's boolean indexing, in the same
                # ascending-lane order.
                idx = bools_to_indices(active)
                lanes = addrs[idx]
                if idx.size:
                    fw.regs[dst][idx] = mem.load(lanes)
            return ExecOutcome(active=active, lane_addresses=lanes)

        return plan

    store_values = _src_getter(instr.srcs[-1], kernel, width)

    if op is Op.ST:

        def plan(fw, active):
            lanes = addrs = addresses(fw)
            mem = fw.shared if shared else memory
            if active is full_arr:
                mem.store(addrs, store_values(fw))
            else:
                idx = bools_to_indices(active)
                lanes = addrs[idx]
                if idx.size:
                    mem.store(lanes, store_values(fw)[idx])
            return ExecOutcome(active=active, lane_addresses=lanes)

        return plan

    atom_op = _ATOM_OPS[op]

    def plan(fw, active):
        lanes = addrs = addresses(fw)
        mem = fw.shared if shared else memory
        if active is full_arr:
            old = mem.atomic(addrs, store_values(fw), atom_op)
            if dst is not None:
                fw.regs[dst] = old
        else:
            idx = bools_to_indices(active)
            lanes = addrs[idx]
            if idx.size:
                old = mem.atomic(lanes, store_values(fw)[idx], atom_op)
                if dst is not None:
                    fw.regs[dst][idx] = old
        return ExecOutcome(active=active, lane_addresses=lanes)

    return plan


def compile_guarded(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int
) -> Callable:
    """Full plan including the predicate guard:
    ``plan(fwarp, mask_bools)`` as above; behind a guard it always
    reports, since the effective mask is news to the caller."""
    body = compile_instruction(instr, kernel, memory, width)
    pred = instr.pred
    if pred is None:
        return body
    # ``== 0`` is exactly ``~(!= 0)``: one comparison, on the zero row.
    compare = np.equal if instr.pred_neg else np.not_equal
    zeros = zero_row(width)

    def guarded(fw, mask):
        active = mask & compare(fw.rows[pred], zeros)
        outcome = body(fw, active)
        return ExecOutcome(active=active) if outcome is None else outcome

    return guarded
