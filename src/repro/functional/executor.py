"""Vectorised per-warp instruction execution.

The :class:`Executor` computes the architectural effect of one
instruction for an arbitrary subset of a warp's threads (an execution
mask), which is exactly the contract SBI/SWI need: warp-splits of the
same warp execute the same register file through disjoint masks.

Registers are ``float64[nregs, warp_width]``.  Integer semantics
(logic, shifts, addressing) round-trip through ``int64`` which is exact
for ``|x| < 2**53``.

Every instruction runs a *plan*, ``plan(fwarp, mask_bools)``, made by
one of two plan makers that produce bit-identical state:

* :func:`repro.functional.compiled.compile_guarded` (the default)
  specialises the instruction into a closure — operands pre-resolved,
  compute function bound directly;
* under ``Executor(..., compiled=False)`` the plan is the reference
  interpreter bound to the instruction: it dispatches per issue, kept
  as the executable specification and used by the differential tests.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from repro.functional import compiled as compiled_plans
from repro.functional.compiled import ExecOutcome, ExecutionError
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
from repro.timing.masks import bools_table, bools_to_mask, mask_to_bools

__all__ = ["ExecOutcome", "ExecutionError", "Executor", "FunctionalWarp", "LaunchRows"]

#: A warp's thread identity: ``(tids_in_cta, tids_f64, lanes_f64,
#: launch_mask)``.
ThreadRows = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


class LaunchRows:
    """The read-only launch constants of one kernel launch at one warp
    width, each built on first use and shared by every warp that reads
    it.

    A warp's thread identity depends only on its index in its CTA: its
    tids (clamped to the CTA, so a partial warp's missing threads read
    the last one's), their ``float64`` row, its lane row and its launch
    mask.  Its ``%warpid`` row depends only on its warp id (an SM slot),
    its ``%ctaid`` row only on its CTA, whose warps launch one after
    another: the last CTA's row is the only one kept.  The launch owns
    its ``LaunchRows`` (a :class:`~repro.core.gpu.GPUDevice` hands one
    to its SMs, :func:`~repro.functional.interp.run_kernel` builds its
    own) and nothing process-wide keeps a row, so the rows go with the
    launch.
    """

    __slots__ = ("width", "cta_size", "nregs", "_threads", "_warpids", "_ctaids")

    def __init__(self, kernel: Kernel, width: int) -> None:
        self.width = width
        self.cta_size = kernel.cta_size
        self.nregs = kernel.nregs
        self._threads: Dict[int, ThreadRows] = {}
        self._warpids: Dict[int, np.ndarray] = {}
        self._ctaids: Dict[int, np.ndarray] = {}

    def threads(self, index: int) -> ThreadRows:
        """The thread identity of warp ``index`` of any CTA."""
        rows = self._threads.get(index)
        if rows is None:
            width = self.width
            tids = np.arange(index * width, (index + 1) * width, dtype=np.int64)
            launch_mask = bools_to_mask(tids < self.cta_size)
            tids = _frozen(np.minimum(tids, self.cta_size - 1))
            rows = self._threads[index] = (
                tids,
                _frozen(tids.astype(np.float64)),
                _frozen((tids % width).astype(np.float64)),
                launch_mask,
            )
        return rows

    def warpid(self, warp_id: int) -> np.ndarray:
        row = self._warpids.get(warp_id)
        if row is None:
            row = self._warpids[warp_id] = _frozen(np.full(self.width, np.float64(warp_id)))
        return row

    def ctaid(self, cta: int) -> np.ndarray:
        row = self._ctaids.get(cta)
        if row is None:
            row = _frozen(np.full(self.width, np.float64(cta)))
            self._ctaids = {cta: row}  # the last CTA's only
        return row


class FunctionalWarp:
    """Architectural state of one warp: its own register file, and its
    thread identity as rows shared from its launch's
    :class:`LaunchRows`."""

    __slots__ = (
        "warp_id",
        "width",
        "regs",
        "rows",
        "tids_in_cta",
        "cta_index",
        "shared",
        "tids_f64",
        "lanes_f64",
        "ctaid_f64",
        "warpid_f64",
        "__weakref__",  # so a test can watch a retired warp go
    )

    def __init__(
        self,
        launch: LaunchRows,
        warp_id: int,
        index: int,
        cta_index: int,
        shared: SharedMemory,
    ) -> None:
        """Warp ``index`` of CTA ``cta_index``, in warp slot ``warp_id``."""
        self.warp_id = warp_id
        self.width = width = launch.width
        self.regs = np.zeros((launch.nregs, width), dtype=np.float64)
        #: A persistent read-only view per register row (``regs[i]``
        #: builds one per use): what the compiled plans' operands read.
        #: Plans write through ``regs[dst]``, which costs the same.
        self.rows = [_frozen(row) for row in self.regs]
        self.cta_index = cta_index
        self.shared = shared
        # Special-register vectors are launch constants, frozen for the
        # compiled operand getters, whose operands are all warp-width
        # rows (see repro.functional.compiled).
        self.tids_in_cta, self.tids_f64, self.lanes_f64, _ = launch.threads(index)
        self.ctaid_f64 = launch.ctaid(cta_index)
        self.warpid_f64 = launch.warpid(warp_id)


def _frozen(row: np.ndarray) -> np.ndarray:
    row.setflags(write=False)
    return row


class Executor:
    """Executes instructions for warps of one kernel launch.

    ``compiled=True`` (the default) compiles each instruction's plan;
    ``compiled=False`` binds the reference interpreter instead.  A
    program instruction's plan is made on its first issue and kept per
    (warp width, PC); an instruction outside the program (``pc``
    unset, or a foreign instruction object) gets a plan made for that
    call.
    """

    def __init__(
        self, kernel: Kernel, memory: MemoryImage, compiled: bool = True
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.compiled = compiled
        self._instrs = kernel.program.instructions
        self._count = len(self._instrs)
        #: width -> plans by PC.  The plans in use are also bound below,
        #: with the width's interned bool rows
        #: (:func:`~repro.timing.masks.bools_table`), so an issue at the
        #: width of the last one pays a single compare.
        self._by_width: dict = {}
        self._width: Optional[int] = None
        self._plans: list = []
        self._bools: dict = {}

    def execute(
        self, instr: Instruction, warp: FunctionalWarp, mask: int
    ) -> Optional[ExecOutcome]:
        """Apply ``instr`` for the threads in the bit-mask ``mask``.

        Returns an :class:`ExecOutcome` with ``active_mask`` filled, or
        ``None`` when there is nothing to report: an unpredicated
        non-branch, non-memory instruction ran for exactly ``mask``.

        The timing model's hot path: the bool expansion is interned
        (one ``mask -> row`` table per width,
        :func:`~repro.timing.masks.bools_table`), and for unpredicated
        instructions (the common case) the active bit-mask is the issue
        mask itself — no reverse conversion.
        Plans are errstate-free: the caller enters one
        ``np.errstate(all="ignore")`` around its loop
        (``GPUDevice.run`` and ``run_kernel`` do).
        """
        width = warp.width
        if width != self._width:
            self._use_width(width)
        bools = self._bools.get(mask)
        if bools is None:
            bools = mask_to_bools(mask, width)
        pc = instr.pc
        if 0 <= pc < self._count and self._instrs[pc] is instr:
            plan = self._plans[pc] or self._plan(pc, width)
        else:
            plan = self._make_plan(instr, width)
        outcome = plan(warp, bools)
        if outcome is None:
            return None
        if instr.pred is None:
            outcome.active_mask = mask
        else:
            outcome.active_mask = bools_to_mask(outcome.active)
        return outcome

    def _use_width(self, width: int) -> None:
        self._plans = self._by_width.setdefault(width, [None] * self._count)
        self._bools = bools_table(width)
        self._width = width

    def _plan(self, pc: int, width: int):
        """Program instruction ``pc``'s plan at ``width`` (the current
        width), made on first use."""
        plan = self._plans[pc] = self._make_plan(self._instrs[pc], width)
        return plan

    def _make_plan(self, instr: Instruction, width: int):
        """``instr``'s plan for warps of ``width``, from this executor's
        plan maker."""
        if self.compiled:
            return compiled_plans.compile_guarded(
                instr, self.kernel, self.memory, width
            )
        return partial(self._execute_interp, instr)

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
        return ExecOutcome(active=active, lane_addresses=lane_addrs)
