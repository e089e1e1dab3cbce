"""Compiled instruction plans: per-instruction specialised closures.

The reference :class:`~repro.functional.executor.Executor` resolves
operands and dispatches on the opcode *per issue* — a string/kind
switch through ``_value`` and a ~30-branch if-chain in ``_compute``.
Kernels execute the same few static instructions millions of times, so
all of that work can be done once per instruction at kernel load:

* operand access is pre-resolved into a getter closure (register row,
  pre-built immediate/param scalar, cached special-register vector);
* the op's compute function, comparison operator, memory space and
  atomic kind are bound directly;
* the predicate guard is compiled in only when the instruction is
  predicated.

Every closure reproduces the reference interpreter's numpy expressions
verbatim (same dtypes, same operation order), so the two paths produce
bit-identical architectural state — pinned by the differential test
over all 21 workloads and the golden smoke matrix.

The only deliberate shortcut is the *full-warp fast path*: when the
effective mask is the interned all-active array (identity comparison
against :func:`repro.timing.masks.mask_to_bools` of the full mask),
masked scatters/gathers degenerate to whole-row operations, which
assign exactly the same elements.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Tuple

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

# ``ExecutionError``/``ExecOutcome`` live in executor.py; imported
# lazily inside functions to avoid a circular import (executor.py
# imports this module).


def _as_int(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).astype(np.int64)


def _int_binop(op) -> Callable:
    return lambda a, b: op(_as_int(a), _as_int(b)).astype(np.float64)


_CMP_FUNCS = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}

#: op -> f(*src_values), mirroring ``Executor._compute`` case by case.
_COMPUTE_FUNCS = {
    Op.MOV: lambda a: a,
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.MAD: lambda a, b, c: a * b + c,
    Op.MIN: np.minimum,
    Op.MAX: np.maximum,
    Op.AND: _int_binop(lambda a, b: a & b),
    Op.OR: _int_binop(lambda a, b: a | b),
    Op.XOR: _int_binop(lambda a, b: a ^ b),
    Op.NOT: lambda a: (~_as_int(a)).astype(np.float64),
    Op.SHL: _int_binop(lambda a, b: a << b),
    Op.SHR: _int_binop(lambda a, b: a >> b),
    Op.ABS: np.abs,
    Op.NEG: operator.neg,
    Op.FLOOR: np.floor,
    Op.I2F: lambda a: a,
    Op.F2I: np.trunc,
    Op.SEL: lambda c, a, b: np.where(np.asarray(c) != 0, a, b),
    Op.RCP: lambda a: 1.0 / a,
    Op.DIV: operator.truediv,
    Op.SQRT: np.sqrt,
    Op.RSQRT: lambda a: 1.0 / np.sqrt(a),
    Op.SIN: np.sin,
    Op.COS: np.cos,
    Op.EX2: np.exp2,
    Op.LG2: np.log2,
}

_ATOM_OPS = {Op.ATOM_ADD: "add", Op.ATOM_MIN: "min", Op.ATOM_MAX: "max"}


def _src_getter(operand: Operand, kernel: Kernel) -> Callable:
    """Pre-resolved operand access: ``getter(fwarp) -> value``."""
    from repro.functional.executor import ExecutionError

    kind = operand.kind
    if kind is OperandKind.REG:
        index = operand.value
        return lambda fw: fw.rows[index]
    if kind is OperandKind.IMM:
        const = np.float64(operand.value)
        return lambda fw: const
    name = operand.value
    if isinstance(name, tuple):  # ("param", i)
        index = name[1]
        if index >= len(kernel.params):
            raise ExecutionError(
                "kernel %s launched with %d params, wants param%d"
                % (kernel.name, len(kernel.params), index)
            )
        const = np.float64(kernel.params[index])
        return lambda fw: const
    if name == "tid":
        return lambda fw: fw.tids_f64
    if name == "ctaid":
        return lambda fw: fw.ctaid_f64
    if name == "ntid":
        const = np.float64(kernel.cta_size)
        return lambda fw: const
    if name == "nctaid":
        const = np.float64(kernel.grid_size)
        return lambda fw: const
    if name == "laneid":
        return lambda fw: fw.lanes_f64
    if name == "warpid":
        return lambda fw: fw.warpid_f64
    raise ExecutionError("unknown special %r" % (name,))


def compile_instruction(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int
) -> Callable:
    """Specialise ``instr`` into ``plan(fwarp, active_bools)``.

    ``active_bools`` is the already-predicated execution mask; the
    predicate guard (when present) is compiled into the returned plan
    by :func:`compile_guarded`.  A plan returns an ``ExecOutcome``
    when it has something to report (a branch its ``taken`` vector, a
    memory access its addresses), else ``None``.
    """
    from repro.functional.executor import ExecOutcome, ExecutionError

    op = instr.op
    full_arr = mask_to_bools(full_mask(width), width)

    if op is Op.BRA:
        if instr.srcs:
            get_cond = _src_getter(instr.srcs[0], kernel)
            negate = instr.pred_neg
            if instr.srcs[0].kind is OperandKind.REG:
                # Register condition: already full-width, and the !=
                # comparison allocates a fresh array — no broadcast,
                # no defensive copy.
                def plan(fw, active):
                    taken = get_cond(fw) != 0
                    if negate:
                        taken = ~taken
                    return ExecOutcome(active=active, taken=taken)

                return plan

            def plan(fw, active):
                taken = np.broadcast_to(get_cond(fw), (width,)) != 0
                if negate:
                    taken = ~taken
                return ExecOutcome(active=active, taken=np.array(taken))

            return plan
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
    compute = _COMPUTE_FUNCS.get(op)
    if op is Op.SETP:
        cmp_fn = _CMP_FUNCS.get(instr.cmp)
        if cmp_fn is None:
            raise ExecutionError("unknown comparison %r" % instr.cmp)
        compute = lambda a, b: np.asarray(cmp_fn(a, b), dtype=np.float64)
    if compute is None:
        raise ExecutionError("unhandled op %r" % op)
    getters = tuple(_src_getter(s, kernel) for s in instr.srcs)
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
            # A slice assignment, not ``copyto``: that would run numpy's
            # Python-level array-function dispatcher once per issue.
            fw.rows[dst][...] = values(fw)
        else:
            # Same elementwise writes as the interpreter's
            # broadcast-then-scatter, in one numpy call.
            copyto(fw.rows[dst], values(fw), where=active)

    return plan


def _compile_memory(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int, full_arr
) -> Callable:
    from repro.functional.executor import ExecOutcome, ExecutionError

    op = instr.op
    space = instr.space
    shared = space is MemSpace.SHARED
    get_base = _src_getter(instr.srcs[0], kernel)
    n_addr_srcs = len(instr.srcs) - (1 if instr.writes_memory else 0)
    get_index = (
        _src_getter(instr.srcs[1], kernel) if n_addr_srcs >= 2 else None
    )
    offset = instr.offset
    dst = instr.dst

    def addresses(fw) -> np.ndarray:
        # Scalar/vector shapes resolve by numpy broadcasting in the
        # same IEEE order as the interpreter's broadcast-then-add; the
        # final astype always copies, so no defensive copy up front.
        addr = get_base(fw)
        if get_index is not None:
            addr = addr + get_index(fw)
        if offset:
            addr = addr + offset
        addr = np.asarray(addr, dtype=np.float64)
        if addr.ndim == 0:
            addr = np.broadcast_to(addr, (width,))
        return addr.astype(np.int64)

    if op is Op.LD:
        if dst is None:
            raise ExecutionError("load without destination")

        def plan(fw, active):
            lanes = addrs = addresses(fw)
            mem = fw.shared if shared else memory
            if active is full_arr:
                fw.rows[dst][:] = mem.load(addrs)
            else:
                # Index-array gather/scatter touches the same elements
                # as the interpreter's boolean indexing, in the same
                # ascending-lane order.
                idx = bools_to_indices(active)
                lanes = addrs[idx]
                if idx.size:
                    fw.rows[dst][idx] = mem.load(lanes)
            return ExecOutcome(
                active=active, addresses=addrs, space=space, lane_addresses=lanes
            )

        return plan

    get_value = _src_getter(instr.srcs[-1], kernel)

    def store_values(fw) -> np.ndarray:
        values = np.asarray(get_value(fw), dtype=np.float64)
        if values.ndim == 0:
            return np.broadcast_to(values, (width,))
        return values

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
            return ExecOutcome(
                active=active, addresses=addrs, space=space, lane_addresses=lanes
            )

        return plan

    atom_op = _ATOM_OPS[op]

    def plan(fw, active):
        lanes = addrs = addresses(fw)
        mem = fw.shared if shared else memory
        if active is full_arr:
            old = mem.atomic(addrs, store_values(fw), atom_op)
            if dst is not None:
                fw.rows[dst][:] = old
        else:
            idx = bools_to_indices(active)
            lanes = addrs[idx]
            if idx.size:
                old = mem.atomic(lanes, store_values(fw)[idx], atom_op)
                if dst is not None:
                    fw.rows[dst][idx] = old
        return ExecOutcome(
            active=active, addresses=addrs, space=space, lane_addresses=lanes
        )

    return plan


def compile_guarded(
    instr: Instruction, kernel: Kernel, memory: MemoryImage, width: int
) -> Callable:
    """Full plan including the predicate guard:
    ``plan(fwarp, mask_bools)`` as above; behind a guard it always
    reports, since the effective mask is news to the caller."""
    from repro.functional.executor import ExecOutcome

    body = compile_instruction(instr, kernel, memory, width)
    pred = instr.pred
    if pred is None:
        return body
    negate = instr.pred_neg

    def guarded(fw, mask):
        taken = fw.rows[pred] != 0
        if negate:
            taken = ~taken
        active = mask & taken
        outcome = body(fw, active)
        return ExecOutcome(active=active) if outcome is None else outcome

    return guarded
