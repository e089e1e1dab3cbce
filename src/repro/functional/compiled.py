"""Compiled instruction plans: one generated function per instruction
shape.

The reference interpreter (``Executor(..., compiled=False)``) resolves
operands and dispatches on the opcode *per issue* — a string/kind
switch through ``_value`` and a ~30-branch if-chain in ``_compute``.
Kernels execute the same few static instructions millions of times, so
all of that is done once per instruction at kernel load, and what an
issue runs is one Python frame, ``plan(fwarp, mask)``:

* an instruction's *shape* — its opcode, each operand's kind, whether
  it is predicated and whether it has a destination (for memory also
  its space, and whether it adds an index and an offset) — decides the
  source text of its plan, which :func:`_source` writes from the fixed
  fragments below;
* each distinct text is made once per process, with ``exec``, into a
  *factory* (:data:`_FACTORIES`), and the factory, called with the
  instruction's register and parameter indices, constant rows, compute
  function and width, returns the plan, a closure over them.

The source names nothing but fixed identifiers (``fw.rows[a0]``,
``fw.tids_f64``, ``np.sqrt``, the factory's parameters): an operand
the generator does not know is an :class:`ExecutionError` before any
source is compiled, and no value of the instruction ever reaches the
text.  Plans are compiled under this module's file name, so a profile
or the allocation guard of ``tests/test_compiled_operands.py`` sees
them as this module's code.

A plan takes the *int* issue mask.  An unpredicated plan writes a
full-warp result on ``mask == full`` as a whole-row assignment, without
touching a bool row; on a partial mask it looks its bool row up in the
width's interned table (:func:`repro.timing.masks.bools_table`) and
scatters through it.  A predicated plan folds the guard into the same
frame.  A plan reports an :class:`ExecOutcome`, ``active_mask`` filled,
when it has something to report (a branch its ``taken`` row, a memory
access its lane addresses, a predicated instruction its effective
mask), else ``None``: an unpredicated instruction ran for exactly
``mask``.

Every plan reproduces the reference interpreter's numpy expressions
(same dtypes, same operation order, the same IEEE operation on every
lane), so the two paths produce bit-identical architectural state —
pinned by the differential test over all 21 workloads and the golden
smoke matrix, and opcode by opcode by ``tests/test_functional_executor.py``,
which runs every assertion on both plan makers.  Full-warp and
index-array scatters assign exactly the elements the interpreter's
boolean indexing does, in the same ascending-lane order.

**A plan is a function of its instruction and the warp width
alone.**  What a launch fixes — the global image, ``%param<i>``,
``%ntid`` and ``%nctaid`` — it reads through the warp (rows of the
launch's :class:`~repro.functional.executor.LaunchRows`), so one plan
serves every launch of its program: the program keeps its plans
(:meth:`~repro.isa.program.Program.plan_table`), and a kernel is
compiled once per process and width, not once per run.

**Every operand is a warp-width array.**  An immediate and a memory
offset become read-only ``float64`` rows built once at compile time;
a kernel parameter, ``ntid``/``nctaid``, ``ctaid`` and ``warpid`` are
read-only rows of the
:class:`~repro.functional.executor.FunctionalWarp`, and branch
conditions, guards and ``SEL`` compare against one zero row.
A ufunc given a numpy or Python scalar pays for converting and
promoting it on every call: at 64 lanes, array ⊕ ``np.float64``
costs 1.6 times array ⊕ array, and ``row != 0`` 1.8 times
``row != zeros`` (numpy 2.4; README's performance section has the
figures).  The rows are read-only, so no plan can write a
constant another plan reads, and an immediate's row is shared by every
operand of the same ``float64`` bits — never by value: ``-0.0`` gets
its own row (``-0.0 == 0.0`` as a dict key, not as an operand of
``1 / x``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instructions import (
    CmpOp,
    Instruction,
    MemSpace,
    Op,
    Operand,
    OperandKind,
)
from repro.isa.program import Program
from repro.timing.masks import (  # noqa: F401  (read by the generated plans)
    bools_table,
    bools_to_indices,
    bools_to_mask,
    full_mask,
    mask_to_bools,
)


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
    ``active``, filled by the plan that built the outcome (the issue
    mask itself when unpredicated), so the timing model never converts
    a bool array back to an integer on the hot path.
    """

    active: np.ndarray
    taken: Optional[np.ndarray] = None
    lane_addresses: Optional[np.ndarray] = None
    active_mask: Optional[int] = None


def const_row(value, width: int) -> np.ndarray:
    """A read-only ``float64`` row holding ``value`` in every lane,
    converted as the interpreter converts it (``np.float64(value)``)."""
    row = np.full(width, np.float64(value), dtype=np.float64)
    row.setflags(write=False)
    return row


def imm_row(value, width: int) -> np.ndarray:
    """``value``'s row, shared by every operand of the same ``float64``
    bits: ``-0.0`` and ``0.0`` get a row each."""
    return _row_of(np.float64(value).tobytes(), width)


@lru_cache(maxsize=None)
def _row_of(bits: bytes, width: int) -> np.ndarray:
    return const_row(np.frombuffer(bits)[0], width)


#: Each special register's row, read off the warp or its launch.
_SPECIAL_ROWS = {
    "tid": "fw.tids_f64",
    "ctaid": "fw.ctaid_f64",
    "ntid": "fw.ntid_f64",
    "nctaid": "fw.nctaid_f64",
    "laneid": "fw.lanes_f64",
    "warpid": "fw.warpid_f64",
}

#: op -> its result over its operands ``{0}``, ``{1}``, ``{2}`` (each
#: placeholder once), mirroring ``Executor._compute`` case by case:
#: ``cmp`` is ``SETP``'s comparison, ``zeros`` and ``ones`` the rows of
#: 0.0 and 1.0.
_INT = "({0}.astype(np.int64) %s {1}.astype(np.int64)).astype(np.float64)"
_RESULTS = {
    Op.MOV: "{0}",
    Op.ADD: "{0} + {1}",
    Op.SUB: "{0} - {1}",
    Op.MUL: "{0} * {1}",
    Op.MAD: "{0} * {1} + {2}",
    Op.MIN: "np.minimum({0}, {1})",
    Op.MAX: "np.maximum({0}, {1})",
    Op.AND: _INT % "&",
    Op.OR: _INT % "|",
    Op.XOR: _INT % "^",
    Op.NOT: "(~{0}.astype(np.int64)).astype(np.float64)",
    Op.SHL: _INT % "<<",
    Op.SHR: _INT % ">>",
    Op.ABS: "np.abs({0})",
    Op.NEG: "-{0}",
    Op.FLOOR: "np.floor({0})",
    Op.I2F: "{0}",
    Op.F2I: "np.trunc({0})",
    Op.SETP: "cmp({0}, {1}).astype(np.float64)",
    Op.SEL: "np.where({0} != zeros, {1}, {2})",
    Op.RCP: "ones / {0}",
    Op.DIV: "{0} / {1}",
    Op.SQRT: "np.sqrt({0})",
    Op.RSQRT: "ones / np.sqrt({0})",
    Op.SIN: "np.sin({0})",
    Op.COS: "np.cos({0})",
    Op.EX2: "np.exp2({0})",
    Op.LG2: "np.log2({0})",
}

_CMP_FUNCS = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}

_ATOM_OPS = {Op.ATOM_ADD: "add", Op.ATOM_MIN: "min", Op.ATOM_MAX: "max"}

#: A partial mask's bool row: one int-keyed ``get`` in the width's
#: interned table, :func:`mask_to_bools` (its one writer) on a miss.
_LOOKUP = [
    "active = bools.get(mask)",
    "if active is None:",
    "    active = mask_to_bools(mask, width)",
]


def _operand(operand: Operand, name: str, width: int, bind: Dict[str, object]) -> str:
    """``operand``'s text in a plan, always a read-only ``float64`` row
    of ``width`` lanes; the index or row it needs is bound as ``name``."""
    kind = operand.kind
    if kind is OperandKind.REG:
        bind[name] = operand.value
        return "fw.rows[%s]" % name
    if kind is OperandKind.IMM:
        bind[name] = imm_row(operand.value, width)
        return name
    value = operand.value
    if isinstance(value, tuple):  # ("param", i): in range, checked by Kernel
        bind[name] = value[1]
        return "fw.params[%s]" % name
    text = _SPECIAL_ROWS.get(value) if isinstance(value, str) else None
    if text is None:
        raise ExecutionError("unknown special %r" % (value,))
    return text


def _result(instr: Instruction, srcs: List[str], width: int, bind: Dict[str, object]) -> str:
    """The expression of an arithmetic, logic or transcendental
    ``instr``'s result."""
    op = instr.op
    result = _RESULTS.get(op)
    if result is None:
        raise ExecutionError("unhandled op %r" % op)
    arity = result.count("{")
    if arity != len(srcs):
        raise ExecutionError("%s takes %d operands, got %d" % (op.value, arity, len(srcs)))
    if op is Op.SETP:
        cmp = _CMP_FUNCS.get(instr.cmp)
        if cmp is None:
            raise ExecutionError("unknown comparison %r" % instr.cmp)
        bind["cmp"] = cmp
    elif op is Op.SEL:
        bind["zeros"] = imm_row(0.0, width)
    elif op is Op.RCP or op is Op.RSQRT:
        bind["ones"] = imm_row(1.0, width)
    return result.format(*srcs)


def _memory(
    instr: Instruction, srcs: List[str], width: int, bind: Dict[str, object]
) -> Tuple[str, List[str], List[str]]:
    """A memory ``instr``'s ``(addresses, full-warp statements, masked
    statements)``; the masked ones run under a bool row ``active``."""
    op = instr.op
    mem = "fw.shared" if instr.space is MemSpace.SHARED else "fw.memory"
    n_addr_srcs = len(srcs) - (1 if instr.writes_memory else 0)
    # (base + index) + offset, the interpreter's order, on float64 rows
    # (the offset too); the final astype always copies, so no
    # defensive copy up front.
    terms = srcs[:2] if n_addr_srcs >= 2 else srcs[:1]
    if instr.offset:
        bind["off"] = imm_row(instr.offset, width)
        terms = terms + ["off"]
    addresses = "lanes = addrs = (%s).astype(np.int64)" % " + ".join(terms)
    if op is Op.LD:
        if instr.dst is None:
            raise ExecutionError("load without destination")
        bind["dst"] = instr.dst
        full = "fw.regs[dst] = %s.load(addrs)" % mem
        part = "fw.regs[dst][idx] = %s.load(lanes)" % mem
    elif op is Op.ST:
        full = "%s.store(addrs, %s)" % (mem, srcs[-1])
        part = "%s.store(lanes, %s[idx])" % (mem, srcs[-1])
    else:
        bind["kind"] = _ATOM_OPS[op]
        full = "%s.atomic(addrs, %s, kind)" % (mem, srcs[-1])
        part = "%s.atomic(lanes, %s[idx], kind)" % (mem, srcs[-1])
        if instr.dst is not None:
            bind["dst"] = instr.dst
            full, part = "fw.regs[dst] = " + full, "fw.regs[dst][idx] = " + part
    # Index-array gathers/scatters touch the same elements as the
    # interpreter's boolean indexing, in the same ascending-lane order.
    masked = ["idx = bools_to_indices(active)", "lanes = addrs[idx]", "if idx.size:"]
    return addresses, [full], masked + ["    " + part]


def _source(instr: Instruction, width: int) -> Tuple[str, Dict[str, object]]:
    """``instr``'s plan factory as ``(source, bindings)``.

    The source is a function of the instruction's shape alone; the
    bindings, keyed by the factory's parameter names, are what one
    instruction of that shape closes over.  Raises
    :class:`ExecutionError` for an instruction no plan can run.
    """
    op = instr.op
    bind: Dict[str, object] = {}
    srcs = [_operand(s, "a%d" % i, width, bind) for i, s in enumerate(instr.srcs)]
    head: List[str] = []  # runs first, whatever the mask
    full: List[str] = []  # on ``mask == full``, unpredicated
    masked: List[str] = []  # under the bool row ``active``
    fields: Optional[str] = None  # what the outcome reports beyond its masks
    if op is Op.BRA:
        if srcs:
            # ``== 0`` is exactly ``~(!= 0)``, NaN lanes included: one
            # comparison either way, against the zero row.
            bind["test"] = np.equal if instr.pred_neg else np.not_equal
            bind["zeros"] = imm_row(0.0, width)
            fields = "taken=test(%s, zeros)" % srcs[0]
        else:
            fields = "taken=full_row"
    elif instr.is_memory:
        address, full, masked = _memory(instr, srcs, width, bind)
        head.append(address)
        fields = "lane_addresses=lanes"
    elif op not in (Op.BAR, Op.EXIT, Op.NOP):
        # ``np.errstate`` is *not* entered per issue (it costs more
        # than the compute for warp-sized arrays); the run loop,
        # ``GPUDevice.run``, enters it once instead.
        result = _result(instr, srcs, width, bind)
        if instr.dst is None:
            head.append(result)  # evaluated for nothing, as the interpreter does
        else:
            bind["dst"] = instr.dst
            # A row assignment, not ``copyto``, on the full warp: that
            # would run numpy's array-function dispatcher per issue.
            full = ["fw.regs[dst] = " + result]
            masked = ["np.copyto(fw.regs[dst], %s, where=active)" % result]

    body = list(head)
    if instr.pred is not None:
        bind["pred"] = instr.pred
        bind["test"] = np.equal if instr.pred_neg else np.not_equal
        bind["zeros"] = imm_row(0.0, width)
        body += _LOOKUP + ["active = active & test(fw.rows[pred], zeros)"] + masked
        body.append("return ExecOutcome(active=active, %sactive_mask=bools_to_mask(active))"
                    % (fields + ", " if fields else ""))
    elif full or fields:

        def report(active: str) -> str:
            if fields is None:
                return "return None"
            return "return ExecOutcome(active=%s, %s, active_mask=mask)" % (active, fields)

        body += ["if mask == full:"] + ["    " + line for line in full]
        body += ["    " + report("full_row")] + _LOOKUP + masked + [report("active")]
    # The width's own names, bound when the body reads them.
    text = "\n".join(body)
    for name, value in (
        ("full", full_mask(width)),
        ("full_row", mask_to_bools(full_mask(width), width)),
        ("bools", bools_table(width)),
        ("width", width),
    ):
        if re.search(r"\b%s\b" % name, text):
            bind[name] = value
    name = "plan_" + op.name.lower()
    lines = ["def factory(%s):" % ", ".join(bind), "    def %s(fw, mask):" % name]
    lines += ["        " + line for line in body or ["return None"]]
    lines.append("    return " + name)
    return "\n".join(lines) + "\n", bind


#: Plan factories by source text: one per instruction shape in use in
#: the process, made on the first compile of the shape.
_FACTORIES: Dict[str, Callable[..., Callable]] = {}


def compile_plan(instr: Instruction, width: int) -> Callable:
    """``instr``'s plan for warps of ``width``: ``plan(fwarp, mask)``
    on the int issue mask, returning an :class:`ExecOutcome` with
    ``active_mask`` filled or ``None`` (see the module docstring)."""
    source, bind = _source(instr, width)
    factory = _FACTORIES.get(source)
    if factory is None:
        namespace: Dict[str, Callable] = {}
        # Globals are this module's, looked up per call as any of its
        # functions' are; the file name is this module's too.
        exec(compile(source, __file__, "exec"), globals(), namespace)
        factory = _FACTORIES[source] = namespace["factory"]
    return factory(**bind)


def compile_program(program: Program, width: int) -> None:
    """Fill ``program``'s plans at ``width`` ahead of their first issue
    (:meth:`~repro.isa.program.Program.plan_table`): what a process
    does before it forks workers that will run the program.  An
    instruction that does not compile keeps its empty slot, so it
    raises where it would have: at its first issue."""
    table = program.plan_table(width)
    for pc, instr in enumerate(program.instructions):
        if table[pc] is None:
            try:
                table[pc] = compile_plan(instr, width)
            except ExecutionError:
                continue
