"""Vectorised per-warp instruction execution.

The :class:`Executor` computes the architectural effect of one
instruction for an arbitrary subset of a warp's threads (an execution
mask), which is exactly the contract SBI/SWI need: warp-splits of the
same warp execute the same register file through disjoint masks.

Registers are ``float64[nregs, warp_width]``.  Integer semantics
(logic, shifts, addressing) round-trip through ``int64`` which is exact
for ``|x| < 2**53``.

Two execution paths produce bit-identical state:

* the **compiled** path (default) specialises each program instruction
  into a closure at first issue (:mod:`repro.functional.compiled`) —
  operands pre-resolved, compute function bound directly;
* the **reference interpreter** (``Executor(..., compiled=False)``)
  dispatches per issue, kept as the executable specification and used
  by the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import Kernel
from repro.isa.instructions import (
    CmpOp,
    Instruction,
    MemSpace,
    Op,
    Operand,
    OperandKind,
)
from repro.timing.masks import bools_to_mask, mask_to_bools


class ExecutionError(Exception):
    """Raised on semantic errors (bad operand counts, unknown ops...)."""


@dataclass(slots=True)
class ExecOutcome:
    """Result of executing one instruction under a mask.

    ``active`` is the effective mask (issue mask AND predicate); for
    branches ``taken`` holds the per-thread outcome over the full warp
    (only meaningful where ``active``); memory operations expose their
    byte ``addresses`` (full-warp array, meaningful where ``active``),
    the address ``space``, and ``lane_addresses`` — the active lanes'
    addresses in ascending lane order, the vector the access itself
    gathered and the one the timing model coalesces.
    ``active_mask`` is the bit-mask form of ``active``, filled by
    :meth:`Executor.execute_masked` so the timing model never converts
    a bool array back to an integer on the hot path.
    """

    active: np.ndarray
    taken: Optional[np.ndarray] = None
    addresses: Optional[np.ndarray] = None
    space: Optional[MemSpace] = None
    lane_addresses: Optional[np.ndarray] = None
    active_mask: Optional[int] = None

    @property
    def is_memory(self) -> bool:
        return self.addresses is not None


class FunctionalWarp:
    """Architectural state of one warp (registers + thread identity)."""

    __slots__ = (
        "warp_id",
        "width",
        "regs",
        "rows",
        "tids_in_cta",
        "cta_index",
        "shared",
        "launch_mask",
        "tids_f64",
        "lanes_f64",
        "ctaid_f64",
        "warpid_f64",
        "__weakref__",  # so a test can watch a retired warp go
    )

    def __init__(
        self,
        warp_id: int,
        width: int,
        nregs: int,
        tids_in_cta: np.ndarray,
        cta_index: int,
        shared: SharedMemory,
    ) -> None:
        self.warp_id = warp_id
        self.width = width
        self.regs = np.zeros((nregs, width), dtype=np.float64)
        #: A persistent read-only view per register row (``regs[i]``
        #: builds one per use): what the compiled plans' operands read.
        #: Plans write through ``regs[dst]``, which costs the same.
        self.rows = [_frozen(row) for row in self.regs]
        self.tids_in_cta = np.asarray(tids_in_cta, dtype=np.int64)
        self.cta_index = cta_index
        self.shared = shared
        self.launch_mask = np.ones(width, dtype=bool)
        if len(self.tids_in_cta) != width:
            raise ExecutionError("tids array must have warp width entries")
        # Special-register vectors are launch constants: computed once
        # and frozen for the compiled operand getters, whose operands
        # are all warp-width rows (see repro.functional.compiled).
        self.tids_f64 = _frozen(self.tids_in_cta.astype(np.float64))
        self.lanes_f64 = _frozen((self.tids_in_cta % width).astype(np.float64))
        self.ctaid_f64 = _frozen(np.full(width, np.float64(cta_index)))
        self.warpid_f64 = _frozen(np.full(width, np.float64(warp_id)))


def _frozen(row: np.ndarray) -> np.ndarray:
    row.setflags(write=False)
    return row


class Executor:
    """Executes instructions for warps of one kernel launch.

    ``compiled=True`` (the default) lazily specialises each program
    instruction into a closure on first issue; ``compiled=False``
    selects the reference interpreter.  Both paths produce identical
    architectural state — instructions outside the kernel program
    (``pc`` unset, or a foreign instruction object) always take the
    interpreter.
    """

    def __init__(
        self, kernel: Kernel, memory: MemoryImage, compiled: bool = True
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.compiled = compiled
        self._instrs = kernel.program.instructions
        self._count = len(self._instrs)
        self._plans = [None] * self._count if compiled else None
        self._plan_width: Optional[int] = None
        self._bools_memo: dict = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(
        self, instr: Instruction, warp: FunctionalWarp, mask: np.ndarray
    ) -> ExecOutcome:
        """Apply ``instr`` for the threads in ``mask`` (bool[width]).

        Compiled plans are errstate-free (the run loop,
        ``GPUDevice.run``, enters one ``np.errstate`` for a whole
        simulation), so this generic entry wraps the call to keep
        direct use warning-silent like the interpreter.
        """
        plans = self._plans
        if plans is not None:
            pc = instr.pc
            if 0 <= pc < self._count and self._instrs[pc] is instr:
                if warp.width != self._plan_width:
                    if self._plan_width is not None:
                        return self._execute_interp(instr, warp, mask)
                    self._plan_width = warp.width
                with np.errstate(all="ignore"):
                    outcome = self._plan(pc, warp.width)(warp, mask)
                # A plan with nothing to report but "done" says None.
                return ExecOutcome(active=mask) if outcome is None else outcome
        return self._execute_interp(instr, warp, mask)

    def _plan(self, pc: int, width: int):
        """Program instruction ``pc``'s plan, compiled on first use."""
        plan = self._plans[pc]
        if plan is None:
            from repro.functional.compiled import compile_guarded

            plan = self._plans[pc] = compile_guarded(
                self._instrs[pc], self.kernel, self.memory, width
            )
        return plan

    def execute_masked(
        self, instr: Instruction, warp: FunctionalWarp, mask: int
    ) -> Optional[ExecOutcome]:
        """:meth:`execute` for a bit-mask, with ``active_mask`` filled
        — or ``None`` when there is nothing to report: an unpredicated
        non-branch, non-memory instruction ran for exactly ``mask``.

        The timing model's hot path: the bool expansion is interned,
        for unpredicated instructions (the common case) the active
        bit-mask is the issue mask itself — no reverse conversion —
        and the compiled-plan dispatch of :meth:`execute` is inlined
        (one call frame per issue is measurable).
        """
        width = warp.width
        plans = self._plans
        if plans is not None and width == self._plan_width:
            # Int-keyed bool-expansion memo: same results as the shared
            # (mask, width) intern, but an int key hashes to itself —
            # faster on a lookup that runs once per issued instruction.
            memo = self._bools_memo
            bools = memo.get(mask)
            if bools is None:
                if len(memo) >= 1 << 14:
                    memo.clear()
                bools = memo[mask] = mask_to_bools(mask, width)
            pc = instr.pc
            if 0 <= pc < self._count and self._instrs[pc] is instr:
                plan = plans[pc] or self._plan(pc, width)
                outcome = plan(warp, bools)
                if outcome is None:
                    return None
            else:
                outcome = self._execute_interp(instr, warp, bools)
        else:
            outcome = self.execute(instr, warp, mask_to_bools(mask, width))
        if instr.pred is None:
            outcome.active_mask = mask
        else:
            outcome.active_mask = bools_to_mask(outcome.active)
        return outcome

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------

    def _value(self, operand: Operand, warp: FunctionalWarp) -> np.ndarray:
        kind = operand.kind
        if kind is OperandKind.REG:
            return warp.regs[operand.value]
        if kind is OperandKind.IMM:
            return np.float64(operand.value)
        name = operand.value
        if isinstance(name, tuple):  # ("param", i)
            index = name[1]
            if index >= len(self.kernel.params):
                raise ExecutionError(
                    "kernel %s launched with %d params, wants param%d"
                    % (self.kernel.name, len(self.kernel.params), index)
                )
            return np.float64(self.kernel.params[index])
        if name == "tid":
            return warp.tids_in_cta.astype(np.float64)
        if name == "ctaid":
            return np.float64(warp.cta_index)
        if name == "ntid":
            return np.float64(self.kernel.cta_size)
        if name == "nctaid":
            return np.float64(self.kernel.grid_size)
        if name == "laneid":
            return (warp.tids_in_cta % warp.width).astype(np.float64)
        if name == "warpid":
            return np.float64(warp.warp_id)
        raise ExecutionError("unknown special %r" % (name,))

    @staticmethod
    def _as_int(values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).astype(np.int64)

    def _effective_mask(
        self, instr: Instruction, warp: FunctionalWarp, mask: np.ndarray
    ) -> np.ndarray:
        if instr.pred is None:
            return mask
        pred = warp.regs[instr.pred] != 0
        if instr.pred_neg:
            pred = ~pred
        return mask & pred

    # ------------------------------------------------------------------
    # Reference interpreter
    # ------------------------------------------------------------------

    def _execute_interp(
        self, instr: Instruction, warp: FunctionalWarp, mask: np.ndarray
    ) -> ExecOutcome:
        """Per-issue dispatch: the executable specification of the ISA."""
        active = self._effective_mask(instr, warp, mask)
        op = instr.op
        if op is Op.BRA:
            return self._branch(instr, warp, active)
        if op in (Op.BAR, Op.EXIT, Op.NOP):
            return ExecOutcome(active=active)
        if instr.is_memory:
            return self._memory(instr, warp, active)
        return self._arith(instr, warp, active)

    def _branch(
        self, instr: Instruction, warp: FunctionalWarp, active: np.ndarray
    ) -> ExecOutcome:
        if instr.srcs:
            cond = self._value(instr.srcs[0], warp)
            taken = np.broadcast_to(cond, (warp.width,)) != 0
            if instr.pred_neg:
                taken = ~taken
            taken = np.array(taken)
        else:
            taken = np.ones(warp.width, dtype=bool)
        return ExecOutcome(active=active, taken=taken)

    def _arith(
        self, instr: Instruction, warp: FunctionalWarp, active: np.ndarray
    ) -> ExecOutcome:
        srcs = tuple(self._value(s, warp) for s in instr.srcs)
        with np.errstate(all="ignore"):
            result = self._compute(instr, srcs)
        if instr.dst is not None:
            dst = warp.regs[instr.dst]
            result = np.broadcast_to(np.asarray(result, dtype=np.float64), dst.shape)
            dst[active] = result[active]
        return ExecOutcome(active=active)

    def _compute(self, instr: Instruction, srcs: Tuple[np.ndarray, ...]):
        op = instr.op
        if op is Op.MOV:
            return srcs[0]
        if op is Op.ADD:
            return srcs[0] + srcs[1]
        if op is Op.SUB:
            return srcs[0] - srcs[1]
        if op is Op.MUL:
            return srcs[0] * srcs[1]
        if op is Op.MAD:
            return srcs[0] * srcs[1] + srcs[2]
        if op is Op.MIN:
            return np.minimum(srcs[0], srcs[1])
        if op is Op.MAX:
            return np.maximum(srcs[0], srcs[1])
        if op is Op.AND:
            return (self._as_int(srcs[0]) & self._as_int(srcs[1])).astype(np.float64)
        if op is Op.OR:
            return (self._as_int(srcs[0]) | self._as_int(srcs[1])).astype(np.float64)
        if op is Op.XOR:
            return (self._as_int(srcs[0]) ^ self._as_int(srcs[1])).astype(np.float64)
        if op is Op.NOT:
            return (~self._as_int(srcs[0])).astype(np.float64)
        if op is Op.SHL:
            return (self._as_int(srcs[0]) << self._as_int(srcs[1])).astype(np.float64)
        if op is Op.SHR:
            return (self._as_int(srcs[0]) >> self._as_int(srcs[1])).astype(np.float64)
        if op is Op.ABS:
            return np.abs(srcs[0])
        if op is Op.NEG:
            return -srcs[0]
        if op is Op.FLOOR:
            return np.floor(srcs[0])
        if op is Op.I2F or op is Op.F2I:
            # Register values are numeric either way; F2I truncates.
            if op is Op.F2I:
                return np.trunc(srcs[0])
            return srcs[0]
        if op is Op.SETP:
            return self._compare(instr.cmp, srcs[0], srcs[1])
        if op is Op.SEL:
            return np.where(np.asarray(srcs[0]) != 0, srcs[1], srcs[2])
        if op is Op.RCP:
            return 1.0 / srcs[0]
        if op is Op.DIV:
            return srcs[0] / srcs[1]
        if op is Op.SQRT:
            return np.sqrt(srcs[0])
        if op is Op.RSQRT:
            return 1.0 / np.sqrt(srcs[0])
        if op is Op.SIN:
            return np.sin(srcs[0])
        if op is Op.COS:
            return np.cos(srcs[0])
        if op is Op.EX2:
            return np.exp2(srcs[0])
        if op is Op.LG2:
            return np.log2(srcs[0])
        raise ExecutionError("unhandled op %r" % op)

    @staticmethod
    def _compare(cmp: CmpOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if cmp is CmpOp.LT:
            out = np.less(a, b)
        elif cmp is CmpOp.LE:
            out = np.less_equal(a, b)
        elif cmp is CmpOp.GT:
            out = np.greater(a, b)
        elif cmp is CmpOp.GE:
            out = np.greater_equal(a, b)
        elif cmp is CmpOp.EQ:
            out = np.equal(a, b)
        elif cmp is CmpOp.NE:
            out = np.not_equal(a, b)
        else:
            raise ExecutionError("unknown comparison %r" % cmp)
        return np.asarray(out, dtype=np.float64)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def _addresses(self, instr: Instruction, warp: FunctionalWarp) -> np.ndarray:
        base = self._value(instr.srcs[0], warp)
        n_addr_srcs = len(instr.srcs) - (1 if instr.writes_memory else 0)
        addr = np.broadcast_to(np.asarray(base, dtype=np.float64), (warp.width,)).copy()
        if n_addr_srcs >= 2:
            addr = addr + self._value(instr.srcs[1], warp)
        if instr.offset:
            addr = addr + instr.offset
        return self._as_int(addr)

    def _space_of(self, instr: Instruction, warp: FunctionalWarp) -> MemoryImage:
        if instr.space is MemSpace.SHARED:
            return warp.shared
        return self.memory

    def _memory(
        self, instr: Instruction, warp: FunctionalWarp, active: np.ndarray
    ) -> ExecOutcome:
        addrs = self._addresses(instr, warp)
        lane_addrs = addrs[active]
        mem = self._space_of(instr, warp)
        op = instr.op
        if op is Op.LD:
            if instr.dst is None:
                raise ExecutionError("load without destination")
            if active.any():
                warp.regs[instr.dst][active] = mem.load(lane_addrs)
        elif op is Op.ST:
            values = np.broadcast_to(
                np.asarray(self._value(instr.srcs[-1], warp), dtype=np.float64),
                (warp.width,),
            )
            if active.any():
                mem.store(lane_addrs, values[active])
        else:  # atomics
            values = np.broadcast_to(
                np.asarray(self._value(instr.srcs[-1], warp), dtype=np.float64),
                (warp.width,),
            )
            atom_op = {"atom.add": "add", "atom.min": "min", "atom.max": "max"}[op.value]
            if active.any():
                old = mem.atomic(lane_addrs, values[active], atom_op)
                if instr.dst is not None:
                    warp.regs[instr.dst][active] = old
        return ExecOutcome(
            active=active, addresses=addrs, space=instr.space,
            lane_addresses=lane_addrs,
        )
