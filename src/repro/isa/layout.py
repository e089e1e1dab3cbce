"""Thread-frontier code layout and synchronization-marker insertion.

The paper relies on two compiler-side guarantees (sections 3.1 and 3.3):

1. Code is laid out in thread-frontier order, so that scheduling the
   minimum-PC warp-split reconverges threads at the earliest point.
   The paper observes nvcc already produces this order for every kernel
   but one (TMD1).  :func:`reorder_frontier` enforces the order
   (topological order of forward edges, stable w.r.t. source order) and
   :func:`validate_frontier_layout` reports violations.
   :func:`permute_blocks` deliberately produces a *bad* layout (the
   tests' way to one; the TMD1 data point itself is written out of
   order in :mod:`repro.workloads.tmd` and built ``layout="as_is"``).

2. Each reconvergence point carries a synchronization marker whose
   payload is ``PCdiv``, the last instruction of the immediate
   dominator of the join block.  The SBI secondary warp-split is
   suspended at the marker while ``PCdiv < CPC1 < PCrec``.  Markers are
   metadata on the join-point instruction (like Tesla's ``.join``
   flags): they cost no issue slot, matching "placed at the same
   addresses as reconvergence markers in the Tesla binary code".

:func:`finalize` bundles the passes and is called by
:meth:`repro.isa.builder.KernelBuilder.build`.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Sequence

from repro.isa.cfg import ControlFlowGraph
from repro.isa.instructions import Instruction, Op
from repro.isa.program import AssemblyError, Program


def annotate_reconvergence(program: Program) -> ControlFlowGraph:
    """Set ``reconv_pc`` on every conditional branch (IPDOM)."""
    cfg = ControlFlowGraph(program)
    for instr in program:
        if instr.op is Op.BRA and instr.is_conditional:
            instr.reconv_pc = cfg.reconvergence_pc(instr.pc)
    return cfg


def insert_sync_markers(program: Program, cfg: Optional[ControlFlowGraph] = None) -> int:
    """Attach ``sync_pcdiv`` to the first instruction of each join block.

    Returns the number of markers placed.
    """
    if cfg is None:
        cfg = ControlFlowGraph(program)
    count = 0
    for join in cfg.join_blocks():
        pcdiv = cfg.divergence_pc_for_join(join)
        if pcdiv is None:
            continue
        head = cfg.blocks[join].start
        program[head].sync_pcdiv = pcdiv
        count += 1
    return count


def validate_frontier_layout(program: Program) -> List[str]:
    """Check the thread-frontier layout property.

    For every conditional branch, every *forward* successor and the
    reconvergence point must sit at a higher address than the branch;
    backward successors must be back edges (loop headers that dominate
    the branch).  Returns a list of human-readable violations (empty =
    layout is frontier-compatible).
    """
    cfg = ControlFlowGraph(program)
    violations = []
    for block in cfg.blocks:
        last = program[block.last_pc]
        for succ in block.successors:
            start = cfg.blocks[succ].start
            if start > block.last_pc:
                continue
            if cfg.dominates(succ, block.index):
                continue  # back edge to a loop header: allowed
            violations.append(
                "control transfer at pc %d targets lower non-dominating "
                "block at pc %d" % (block.last_pc, start)
            )
        if last.op is not Op.BRA or not last.is_conditional:
            continue
        rec = cfg.reconvergence_pc(block.last_pc)
        if rec is not None and rec <= block.last_pc:
            if not cfg.dominates(cfg.block_of_pc[rec], block.index):
                violations.append(
                    "reconvergence point %d below divergent branch %d"
                    % (rec, block.last_pc)
                )
    return violations


def _rebuild(program: Program, cfg: ControlFlowGraph, order: Sequence[int]) -> Program:
    """Re-emit ``program`` with blocks in ``order``, fixing fall-through.

    Blocks whose fall-through successor is no longer adjacent get an
    explicit unconditional branch appended.
    """
    if sorted(order) != list(range(len(cfg.blocks))):
        raise AssemblyError("order must be a permutation of block indices")
    n = len(program)
    new_instrs: List[Instruction] = []
    new_pc_of_old: Dict[int, int] = {}
    pending_fallthrough: List[tuple] = []  # (position in new_instrs, old target pc)
    for pos, bidx in enumerate(order):
        block = cfg.blocks[bidx]
        for pc in block.pcs():
            new_pc_of_old[pc] = len(new_instrs)
            new_instrs.append(dataclasses.replace(program[pc]))
        last = program[block.last_pc]
        falls_through = last.op not in (Op.EXIT,) and not (
            last.op is Op.BRA and not last.is_conditional
        )
        if falls_through and block.end < n:
            next_is_adjacent = (
                pos + 1 < len(order) and cfg.blocks[order[pos + 1]].start == block.end
            )
            if not next_is_adjacent:
                pending_fallthrough.append((len(new_instrs), block.end))
                new_instrs.append(Instruction(Op.BRA))
        elif falls_through and block.end >= n:
            pass  # fall-off end; validation in Program will catch if last
    for position, old_target in pending_fallthrough:
        new_instrs[position].target = old_target  # still old pc; remapped below
    for instr in new_instrs:
        if instr.op is Op.BRA:
            if not isinstance(instr.target, int):
                raise AssemblyError("rebuild expects resolved branch targets")
            instr.target = new_pc_of_old[instr.target]
        instr.reconv_pc = None
        instr.sync_pcdiv = None
    labels = {name: new_pc_of_old[pc] for name, pc in program.labels.items()}
    return Program(new_instrs, labels)


def reorder_frontier(program: Program) -> Program:
    """Reorder blocks into thread-frontier order.

    Topological order over forward edges (back edges removed), with
    ties broken by source order — the practical equivalent of laying
    out blocks by thread-frontier priority for the structured and
    mildly unstructured kernels in the suite.  Idempotent on programs
    that already satisfy the property.
    """
    cfg = ControlFlowGraph(program)
    back = set(cfg.back_edges())
    indegree = {b.index: 0 for b in cfg.blocks}
    succs: Dict[int, List[int]] = {b.index: [] for b in cfg.blocks}
    for block in cfg.blocks:
        for s in block.successors:
            if (block.index, s) in back:
                continue
            succs[block.index].append(s)
            indegree[s] += 1
    heap = [b.index for b in cfg.blocks if indegree[b.index] == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for s in succs[node]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(heap, s)
    if len(order) != len(cfg.blocks):
        raise AssemblyError("CFG has a cycle through forward edges only")
    if order == [b.index for b in cfg.blocks]:
        return program  # already in frontier order
    return _rebuild(program, cfg, order)


def permute_blocks(program: Program, order: Sequence[int]) -> Program:
    """Apply an explicit block permutation (how tests build a bad layout)."""
    cfg = ControlFlowGraph(program)
    return _rebuild(program, cfg, order)


def finalize(program: Program, layout: str = "frontier") -> Program:
    """Run the full compiler pipeline on an assembled program.

    ``layout``:

    * ``"frontier"`` — reorder into thread-frontier order (default),
    * ``"as_is"``    — keep source order (used for deliberately bad
      layouts such as TMD1).

    Both variants then annotate branch reconvergence points and insert
    SBI synchronization markers.
    """
    if layout == "frontier":
        program = reorder_frontier(program)
    elif layout != "as_is":
        raise ValueError("unknown layout mode %r" % layout)
    cfg = annotate_reconvergence(program)
    insert_sync_markers(program, cfg)
    return program
