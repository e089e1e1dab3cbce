"""Program container and label resolution (the assembler back half).

A :class:`Program` is an ordered list of :class:`Instruction` with
branch targets resolved to instruction indices (PCs are instruction
indices, which is equivalent to fixed-width encoding).  Programs are
built through :class:`repro.isa.builder.KernelBuilder`; this module
performs resolution, validation and pretty-printing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.isa.instructions import Instruction, Op


class AssemblyError(Exception):
    """Raised for malformed programs (unknown labels, bad operands...)."""


class Program:
    """An assembled kernel body.

    Parameters
    ----------
    instructions:
        Instruction sequence.  Branch ``target`` fields may be label
        strings, resolved against ``labels``.
    labels:
        Mapping from label name to instruction index.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Optional[Dict[str, int]] = None,
    ) -> None:
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        #: Compiled plans by warp width, one slot per PC, filled on
        #: first use by :mod:`repro.functional`: a plan is a function of
        #: its instruction and the width alone, so every launch, SM and
        #: :meth:`~repro.isa.builder.Kernel.with_params` copy of the
        #: program shares it, and it goes with the program.
        self.plans: Dict[int, List[Optional[Callable[..., Any]]]] = {}
        self._resolve()
        self._validate()

    def _resolve(self) -> None:
        for pc, instr in enumerate(self.instructions):
            instr.pc = pc
            if instr.op is Op.BRA and isinstance(instr.target, str):
                if instr.target not in self.labels:
                    raise AssemblyError("undefined label %r" % instr.target)
                instr.target = self.labels[instr.target]

    def _validate(self) -> None:
        n = len(self.instructions)
        if n == 0:
            raise AssemblyError("empty program")
        for instr in self.instructions:
            if instr.op is Op.BRA:
                if not isinstance(instr.target, int):
                    raise AssemblyError("unresolved branch target %r" % instr.target)
                if not 0 <= instr.target < n:
                    raise AssemblyError(
                        "branch target %d out of range [0, %d)" % (instr.target, n)
                    )
        last = self.instructions[-1]
        if last.op not in (Op.EXIT, Op.BRA):
            raise AssemblyError(
                "program must end with exit or an unconditional branch, got %r" % last
            )

    @property
    def register_count(self) -> int:
        """The register file the program needs: one more than the
        highest register index any instruction names (0 if none)."""
        return 1 + max(
            (index for instr in self.instructions for index in instr.registers()),
            default=-1,
        )

    def plan_table(self, width: int) -> List[Optional[Callable[..., Any]]]:
        """The plan slots of warp width ``width`` (see :attr:`plans`)."""
        table = self.plans.get(width)
        if table is None:
            table = self.plans.setdefault(width, [None for _ in self.instructions])
        return table

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def __iter__(self) -> Iterable[Instruction]:
        return iter(self.instructions)

    def label_at(self, pc: int) -> Optional[str]:
        """Label attached to ``pc``, if any (first match)."""
        for name, target in self.labels.items():
            if target == pc:
                return name
        return None

    def listing(self) -> str:
        """Human-readable assembly listing with PCs, labels and markers."""
        lines = []
        by_pc: Dict[int, List[str]] = {}
        for name, target in self.labels.items():
            by_pc.setdefault(target, []).append(name)
        for pc, instr in enumerate(self.instructions):
            for name in sorted(by_pc.get(pc, ())):
                lines.append("%s:" % name)
            notes = []
            if instr.sync_pcdiv is not None:
                notes.append("sync(PCdiv=%d)" % instr.sync_pcdiv)
            if instr.reconv_pc is not None:
                notes.append("reconv=%d" % instr.reconv_pc)
            note = ("   ; " + ", ".join(notes)) if notes else ""
            lines.append("  %3d: %s%s" % (pc, instr, note))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Program(%d instructions, %d labels)" % (
            len(self.instructions),
            len(self.labels),
        )
