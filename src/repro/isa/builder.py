"""Kernel construction DSL.

:class:`KernelBuilder` is the front end used to write the workloads: a
thin structured-assembly layer over :class:`repro.isa.program.Program`.
It allocates registers by name, resolves labels, and runs the layout /
reconvergence / sync-marker pipeline on :meth:`KernelBuilder.build`.

Example
-------
>>> kb = KernelBuilder("saxpy")
>>> i, x, y, a = kb.regs("i", "x", "y", "a")
>>> kb.mov(i, kb.tid)
>>> kb.mul(i, i, 4)
>>> kb.ld(x, kb.param(0), index=i)
>>> kb.ld(y, kb.param(1), index=i)
>>> kb.mad(y, x, kb.param(2), y)
>>> kb.st(kb.param(1), y, index=i)
>>> kb.exit_()
>>> kernel = kb.build(cta_size=64, grid_size=4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.isa import layout as layout_pass
from repro.isa.instructions import (
    CmpOp,
    Instruction,
    MemSpace,
    Op,
    Operand,
    OperandKind,
    imm,
    reg,
    special,
)
from repro.isa.program import AssemblyError, Program

#: Anything accepted as a source operand by the builder.
SrcLike = Union[Operand, int, float]


@dataclass
class Kernel:
    """A launchable kernel: program + geometry + launch parameters.

    ``params`` are scalar launch arguments (base addresses, sizes...)
    read through ``%param<i>`` specials.  ``shared_bytes`` is the
    per-CTA shared-memory allocation.  ``nregs`` is each warp's
    register-file size (:meth:`KernelBuilder.build` sets it to the
    program's :attr:`~repro.isa.program.Program.register_count`); a
    program that names a register past it is refused.
    """

    name: str
    program: Program
    cta_size: int
    grid_size: int
    params: Tuple[float, ...] = ()
    shared_bytes: int = 0
    nregs: int = 32

    def __post_init__(self) -> None:
        for name, least in (
            ("cta_size", 1), ("grid_size", 0), ("shared_bytes", 0), ("nregs", 0)
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(
                    "kernel %s: %s must be an int >= %d, got %r"
                    % (self.name, name, least, value)
                )
        for instr in self.program:
            for index in instr.registers():
                if index >= self.nregs:
                    raise ValueError(
                        "kernel %s: %r names r%d, past its %d registers"
                        % (self.name, instr, index, self.nregs)
                    )

    @property
    def total_threads(self) -> int:
        return self.cta_size * self.grid_size

    def with_params(self, *params: float) -> "Kernel":
        """Copy of the kernel with different launch parameters."""
        return Kernel(
            self.name,
            self.program,
            self.cta_size,
            self.grid_size,
            tuple(params),
            self.shared_bytes,
            self.nregs,
        )


class KernelBuilder:
    """Structured assembler for the reproduction ISA."""

    def __init__(self, name: str, nregs: int = 32) -> None:
        self.name = name
        self.nregs = nregs
        self._instrs: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        #: Every label a ``bra`` names (building resolves the program's
        #: targets to indices in place, so they are kept here).
        self._targets: Set[str] = set()
        self._reg_names: Dict[str, int] = {}
        self._next_reg = 0
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Registers and operands
    # ------------------------------------------------------------------

    def reg(self, name: str) -> Operand:
        """Allocate (or look up) a named register."""
        if name not in self._reg_names:
            if self._next_reg >= self.nregs:
                raise AssemblyError(
                    "out of registers (%d) in kernel %s" % (self.nregs, self.name)
                )
            self._reg_names[name] = self._next_reg
            self._next_reg += 1
        return reg(self._reg_names[name])

    def regs(self, *names: str) -> Tuple[Operand, ...]:
        """Allocate several named registers at once."""
        return tuple(self.reg(n) for n in names)

    @property
    def tid(self) -> Operand:
        """Thread index within the CTA (``%tid``)."""
        return special("tid")

    @property
    def ctaid(self) -> Operand:
        return special("ctaid")

    @property
    def ntid(self) -> Operand:
        return special("ntid")

    @property
    def nctaid(self) -> Operand:
        return special("nctaid")

    @property
    def laneid(self) -> Operand:
        return special("laneid")

    @property
    def warpid(self) -> Operand:
        return special("warpid")

    def param(self, index: int) -> Operand:
        """Launch parameter ``%param<index>``."""
        return special("param", index)

    @staticmethod
    def _src(value: SrcLike) -> Operand:
        if isinstance(value, Operand):
            if isinstance(value.value, tuple):  # %param<i>
                index = value.value[1]
                if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                    raise AssemblyError(
                        "launch parameter index must be an int >= 0, got %r" % (index,)
                    )
            return value
        # bool is an int: True would assemble as the immediate 1.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return imm(value)
        raise AssemblyError("bad source operand %r" % (value,))

    @staticmethod
    def _dst(value: Operand) -> int:
        if not isinstance(value, Operand) or value.kind is not OperandKind.REG:
            raise AssemblyError("destination must be a register, got %r" % (value,))
        return value.value

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, instr: Instruction) -> Instruction:
        for index in instr.registers():
            if index >= self.nregs:
                raise AssemblyError(
                    "%r in kernel %s uses r%d, past its %d registers"
                    % (instr, self.name, index, self.nregs)
                )
        self._instrs.append(instr)
        return instr

    def _alu(
        self,
        op: Op,
        dst: Operand,
        *srcs: SrcLike,
        pred: Optional[Operand] = None,
        pred_neg: bool = False,
    ) -> Instruction:
        return self._emit(
            Instruction(
                op,
                dst=self._dst(dst),
                srcs=tuple(self._src(s) for s in srcs),
                pred=None if pred is None else self._dst(pred),
                pred_neg=pred_neg,
            )
        )

    # MAD-class -------------------------------------------------------

    def mov(self, dst, src, **kw) -> Instruction:
        return self._alu(Op.MOV, dst, src, **kw)

    def add(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.ADD, dst, a, b, **kw)

    def sub(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.SUB, dst, a, b, **kw)

    def mul(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.MUL, dst, a, b, **kw)

    def mad(self, dst, a, b, c, **kw) -> Instruction:
        """``dst = a * b + c`` (the unit the MAD group is named after)."""
        return self._alu(Op.MAD, dst, a, b, c, **kw)

    def min_(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.MIN, dst, a, b, **kw)

    def max_(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.MAX, dst, a, b, **kw)

    def and_(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.AND, dst, a, b, **kw)

    def or_(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.OR, dst, a, b, **kw)

    def xor(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.XOR, dst, a, b, **kw)

    def not_(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.NOT, dst, a, **kw)

    def shl(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.SHL, dst, a, b, **kw)

    def shr(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.SHR, dst, a, b, **kw)

    def abs_(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.ABS, dst, a, **kw)

    def neg(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.NEG, dst, a, **kw)

    def floor(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.FLOOR, dst, a, **kw)

    def i2f(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.I2F, dst, a, **kw)

    def f2i(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.F2I, dst, a, **kw)

    def sel(self, dst, cond, a, b, **kw) -> Instruction:
        """``dst = a if cond != 0 else b`` (branch-free select)."""
        return self._alu(Op.SEL, dst, cond, a, b, **kw)

    def nop(self) -> Instruction:
        return self._emit(Instruction(Op.NOP))

    def setp(self, dst, cmp: CmpOp, a, b, **kw) -> Instruction:
        """Set predicate register: ``dst = 1 if (a cmp b) else 0``."""
        if not isinstance(cmp, CmpOp):
            raise AssemblyError("setp comparison must be a CmpOp, got %r" % (cmp,))
        instr = self._alu(Op.SETP, dst, a, b, **kw)
        instr.cmp = cmp
        return instr

    # SFU-class -------------------------------------------------------

    def rcp(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.RCP, dst, a, **kw)

    def div(self, dst, a, b, **kw) -> Instruction:
        return self._alu(Op.DIV, dst, a, b, **kw)

    def sqrt(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.SQRT, dst, a, **kw)

    def rsqrt(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.RSQRT, dst, a, **kw)

    def sin(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.SIN, dst, a, **kw)

    def cos(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.COS, dst, a, **kw)

    def ex2(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.EX2, dst, a, **kw)

    def lg2(self, dst, a, **kw) -> Instruction:
        return self._alu(Op.LG2, dst, a, **kw)

    # LSU-class -------------------------------------------------------

    def _address(self, base: SrcLike, index: Optional[SrcLike]) -> Tuple[Operand, ...]:
        srcs = [self._src(base)]
        if index is not None:
            srcs.append(self._src(index))
        return tuple(srcs)

    def ld(
        self,
        dst,
        base: SrcLike,
        index: Optional[SrcLike] = None,
        offset: int = 0,
        space: MemSpace = MemSpace.GLOBAL,
        pred: Optional[Operand] = None,
        pred_neg: bool = False,
    ) -> Instruction:
        """``dst = mem[base + index + offset]`` (4-byte word).

        ``index`` is a per-thread byte offset register; ``offset`` a
        static byte displacement.
        """
        return self._emit(
            Instruction(
                Op.LD,
                dst=self._dst(dst),
                srcs=self._address(base, index),
                space=space,
                offset=offset,
                pred=None if pred is None else self._dst(pred),
                pred_neg=pred_neg,
            )
        )

    def st(
        self,
        base: SrcLike,
        src: SrcLike,
        index: Optional[SrcLike] = None,
        offset: int = 0,
        space: MemSpace = MemSpace.GLOBAL,
        pred: Optional[Operand] = None,
        pred_neg: bool = False,
    ) -> Instruction:
        """``mem[base + index + offset] = src``."""
        return self._emit(
            Instruction(
                Op.ST,
                dst=None,
                srcs=self._address(base, index) + (self._src(src),),
                space=space,
                offset=offset,
                pred=None if pred is None else self._dst(pred),
                pred_neg=pred_neg,
            )
        )

    def atom_add(
        self,
        dst: Optional[Operand],
        base: SrcLike,
        src: SrcLike,
        index: Optional[SrcLike] = None,
        offset: int = 0,
        space: MemSpace = MemSpace.GLOBAL,
        pred: Optional[Operand] = None,
        pred_neg: bool = False,
    ) -> Instruction:
        """Atomic ``mem[addr] += src``; old value to ``dst`` if given."""
        return self._emit(
            Instruction(
                Op.ATOM_ADD,
                dst=None if dst is None else self._dst(dst),
                srcs=self._address(base, index) + (self._src(src),),
                space=space,
                offset=offset,
                pred=None if pred is None else self._dst(pred),
                pred_neg=pred_neg,
            )
        )

    # Control flow ----------------------------------------------------

    def label(self, name: Optional[str] = None) -> str:
        """Define a label at the current position; returns its name."""
        if name is None:
            name = "L%d" % self._label_counter
            self._label_counter += 1
        if name in self._labels:
            raise AssemblyError("duplicate label %r" % name)
        self._labels[name] = len(self._instrs)
        return name

    def bra(
        self,
        target: str,
        cond: Optional[Operand] = None,
        neg: bool = False,
    ) -> Instruction:
        """Branch to ``target``; taken per-thread iff ``cond != 0``
        (or ``== 0`` with ``neg=True``).  Unconditional without ``cond``."""
        srcs: Tuple[Operand, ...] = ()
        if cond is not None:
            srcs = (self._src(cond),)
        instr = self._emit(
            Instruction(Op.BRA, srcs=srcs, target=target, pred_neg=neg)
        )
        self._targets.add(target)
        return instr

    def bar(self) -> Instruction:
        """CTA-wide synchronization barrier (``__syncthreads``)."""
        return self._emit(Instruction(Op.BAR))

    def exit_(self) -> Instruction:
        return self._emit(Instruction(Op.EXIT))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    @property
    def used_registers(self) -> int:
        return self._next_reg

    def build(
        self,
        cta_size: int,
        grid_size: int = 1,
        params: Tuple[float, ...] = (),
        shared_bytes: int = 0,
        layout: str = "frontier",
    ) -> Kernel:
        """Assemble, run layout passes, and wrap into a :class:`Kernel`
        whose register file is what the program names
        (:attr:`~repro.isa.program.Program.register_count`), not the
        builder's ``nregs`` limit.

        A label that no branch targets is refused by name: it is a
        typo'd or dropped branch more often than a comment."""
        unused = [name for name in self._labels if name not in self._targets]
        if unused:
            raise AssemblyError(
                "label%s %s defined but never branched to"
                % ("s" if len(unused) > 1 else "", ", ".join(map(repr, unused)))
            )
        program = Program(list(self._instrs), dict(self._labels))
        program = layout_pass.finalize(program, layout=layout)
        return Kernel(
            name=self.name,
            program=program,
            cta_size=cta_size,
            grid_size=grid_size,
            params=tuple(float(p) for p in params),
            shared_bytes=shared_bytes,
            nregs=program.register_count,
        )
