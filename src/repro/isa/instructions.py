"""Instruction set definition for the SIMT reproduction ISA.

The ISA is a small predicated RISC machine modelled after the subset of
the Tesla/Fermi ISA that the paper's workloads exercise.  Each opcode
belongs to one :class:`OpClass`, which determines the execution-unit
group it issues to in the timing model (paper Figure 1):

* ``MAD``  — integer/float arithmetic, logic, comparisons, selects.
* ``SFU``  — transcendentals (reciprocal, square root, sin, cos, ...).
* ``LSU``  — loads, stores and atomics (global and shared spaces).
* ``CTRL`` — branches, barriers and thread exit.  Control instructions
  occupy an issue slot and a MAD-group cycle, like on Fermi where the
  branch unit shares the main datapath issue port.

Values are dynamically typed at the functional level: registers hold
64-bit floats, and integer operations round-trip through ``int64``.
This is exact for the integer ranges used by addresses and indices in
the workloads (``|x| < 2**53``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple, Union


class OpClass(enum.Enum):
    """Execution-unit class an opcode issues to."""

    MAD = "mad"
    SFU = "sfu"
    LSU = "lsu"
    CTRL = "ctrl"


class Op(enum.Enum):
    """Opcodes.  The value is the assembly mnemonic."""

    # MAD-class arithmetic / logic.
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    ABS = "abs"
    NEG = "neg"
    FLOOR = "floor"
    I2F = "i2f"
    F2I = "f2i"
    SETP = "setp"
    SEL = "sel"
    NOP = "nop"
    # SFU-class transcendentals.
    RCP = "rcp"
    DIV = "div"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    SIN = "sin"
    COS = "cos"
    EX2 = "ex2"
    LG2 = "lg2"
    # LSU-class memory operations.
    LD = "ld"
    ST = "st"
    ATOM_ADD = "atom.add"
    ATOM_MIN = "atom.min"
    ATOM_MAX = "atom.max"
    # Control flow.
    BRA = "bra"
    BAR = "bar"
    EXIT = "exit"


_OP_CLASS = {
    Op.MOV: OpClass.MAD,
    Op.ADD: OpClass.MAD,
    Op.SUB: OpClass.MAD,
    Op.MUL: OpClass.MAD,
    Op.MAD: OpClass.MAD,
    Op.MIN: OpClass.MAD,
    Op.MAX: OpClass.MAD,
    Op.AND: OpClass.MAD,
    Op.OR: OpClass.MAD,
    Op.XOR: OpClass.MAD,
    Op.NOT: OpClass.MAD,
    Op.SHL: OpClass.MAD,
    Op.SHR: OpClass.MAD,
    Op.ABS: OpClass.MAD,
    Op.NEG: OpClass.MAD,
    Op.FLOOR: OpClass.MAD,
    Op.I2F: OpClass.MAD,
    Op.F2I: OpClass.MAD,
    Op.SETP: OpClass.MAD,
    Op.SEL: OpClass.MAD,
    Op.NOP: OpClass.MAD,
    Op.RCP: OpClass.SFU,
    Op.DIV: OpClass.SFU,
    Op.SQRT: OpClass.SFU,
    Op.RSQRT: OpClass.SFU,
    Op.SIN: OpClass.SFU,
    Op.COS: OpClass.SFU,
    Op.EX2: OpClass.SFU,
    Op.LG2: OpClass.SFU,
    Op.LD: OpClass.LSU,
    Op.ST: OpClass.LSU,
    Op.ATOM_ADD: OpClass.LSU,
    Op.ATOM_MIN: OpClass.LSU,
    Op.ATOM_MAX: OpClass.LSU,
    Op.BRA: OpClass.CTRL,
    Op.BAR: OpClass.CTRL,
    Op.EXIT: OpClass.CTRL,
}

#: Opcodes that read memory.
MEMORY_READ_OPS = frozenset({Op.LD, Op.ATOM_ADD, Op.ATOM_MIN, Op.ATOM_MAX})
#: Opcodes that write memory.
MEMORY_WRITE_OPS = frozenset({Op.ST, Op.ATOM_ADD, Op.ATOM_MIN, Op.ATOM_MAX})
#: Opcodes that may change control flow.
BRANCH_OPS = frozenset({Op.BRA})


class CmpOp(enum.Enum):
    """Comparison operators for :data:`Op.SETP`."""

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"


class MemSpace(enum.Enum):
    """Address spaces for memory operations."""

    GLOBAL = "global"
    SHARED = "shared"


class OperandKind(enum.Enum):
    REG = "r"
    IMM = "i"
    SPECIAL = "s"


#: Special register names readable through :func:`special`.
SPECIAL_NAMES = ("tid", "ctaid", "ntid", "nctaid", "laneid", "warpid")


@dataclass(frozen=True)
class Operand:
    """A source operand: register, immediate or special value.

    ``value`` is the register index for ``REG``, the literal for
    ``IMM``, and either a special-register name or ``("param", i)``
    for ``SPECIAL``.
    """

    kind: OperandKind
    value: Union[int, float, str, Tuple[str, int]]

    def __repr__(self) -> str:
        if self.kind is OperandKind.REG:
            return "r%d" % self.value
        if self.kind is OperandKind.IMM:
            return repr(self.value)
        if isinstance(self.value, tuple):
            return "%%%s%d" % self.value
        return "%%%s" % self.value


def reg(index: int) -> Operand:
    """Register operand ``r<index>``."""
    if index < 0:
        raise ValueError("register index must be non-negative, got %d" % index)
    return Operand(OperandKind.REG, index)


def imm(value: Union[int, float]) -> Operand:
    """Immediate operand."""
    return Operand(OperandKind.IMM, value)


def special(name: str, index: Optional[int] = None) -> Operand:
    """Special-register operand (``%tid``, ``%ctaid``, ``%param0``...)."""
    if name == "param":
        if index is None:
            raise ValueError("param specials need an index")
        return Operand(OperandKind.SPECIAL, ("param", index))
    if name not in SPECIAL_NAMES:
        raise ValueError("unknown special register %r" % name)
    return Operand(OperandKind.SPECIAL, name)


@dataclass
class Instruction:
    """One decoded instruction.

    Fields filled by compiler passes after assembly:

    * ``reconv_pc`` — for divergent branches, the immediate
      post-dominator PC used by the baseline stack model.
    * ``sync_pcdiv`` — when this instruction sits at a reconvergence
      point, the divergence-point address ``PCdiv`` (last instruction of
      the immediate dominator).  Used by SBI's selective
      synchronization barrier (paper section 3.3).
    """

    op: Op
    dst: Optional[int] = None
    srcs: Tuple[Operand, ...] = ()
    target: Optional[Union[str, int]] = None
    space: Optional[MemSpace] = None
    cmp: Optional[CmpOp] = None
    pred: Optional[int] = None
    pred_neg: bool = False
    offset: int = 0
    # Filled by repro.isa.cfg / repro.isa.layout.
    reconv_pc: Optional[int] = None
    sync_pcdiv: Optional[int] = None
    pc: int = field(default=-1)

    # Opcode, operands and predicate never change once a program is
    # assembled, so the derived views below are computed once per
    # instruction (they sit on scheduler/scoreboard hot paths).

    @cached_property
    def op_class(self) -> OpClass:
        return _OP_CLASS[self.op]

    @cached_property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_conditional(self) -> bool:
        return self.op is Op.BRA and self.srcs != ()

    @cached_property
    def is_memory(self) -> bool:
        return self.op_class is OpClass.LSU

    @property
    def reads_memory(self) -> bool:
        return self.op in MEMORY_READ_OPS

    @property
    def writes_memory(self) -> bool:
        return self.op in MEMORY_WRITE_OPS

    def source_registers(self) -> Tuple[int, ...]:
        """Register indices read by this instruction (incl. predicate)."""
        regs = [s.value for s in self.srcs if s.kind is OperandKind.REG]
        if self.pred is not None:
            regs.append(self.pred)
        return tuple(regs)

    def registers(self) -> Tuple[int, ...]:
        """Register indices named by this instruction: read, predicated
        on or written."""
        if self.dst is None:
            return self.source_registers()
        return self.source_registers() + (self.dst,)

    @cached_property
    def hazard_regs(self) -> Tuple[int, ...]:
        """Cached :meth:`source_registers` for the scoreboard."""
        return self.source_registers()

    @cached_property
    def hazard_mask(self) -> int:
        """Bit-mask of every register this instruction reads or writes
        (sources, predicate, destination) — the scoreboard's one-AND
        conflict prefilter."""
        mask = 0
        for r in self.hazard_regs:
            mask |= 1 << r
        if self.dst is not None:
            mask |= 1 << self.dst
        return mask

    def __repr__(self) -> str:
        parts = []
        if self.pred is not None:
            parts.append("@%sr%d" % ("!" if self.pred_neg else "", self.pred))
        name = self.op.value
        if self.cmp is not None:
            name += "." + self.cmp.value
        if self.space is not None:
            name += "." + self.space.value
        parts.append(name)
        ops = []
        if self.dst is not None:
            ops.append("r%d" % self.dst)
        ops.extend(repr(s) for s in self.srcs)
        if self.target is not None:
            ops.append(str(self.target))
        if ops:
            parts.append(", ".join(ops))
        text = " ".join(parts)
        if self.offset:
            text += " +%d" % self.offset
        return text


def op_class_of(op: Op) -> OpClass:
    """Execution-unit class of an opcode."""
    return _OP_CLASS[op]
