"""Reference interpreter: kernel execution without a timing model.

Executes a kernel launch to completion using thread-frontier (min-PC)
scheduling of warp-splits, one CTA at a time.  This is the executable
semantics of the ISA: every timing configuration (baseline stack, SBI,
SWI...) must leave global memory in exactly the state this interpreter
produces.  It is also used by workloads to compute dynamic instruction
counts independent of the micro-architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.functional.executor import Executor, FunctionalWarp, LaunchRows
from repro.functional.memory import MemoryImage, SharedMemory
from repro.isa.builder import Kernel
from repro.isa.instructions import Op
from repro.timing.masks import bools_to_mask


class InterpreterError(Exception):
    """Kernel did not terminate or broke an execution invariant."""


@dataclass
class InterpResult:
    """Dynamic execution summary of one launch."""

    instructions: int = 0
    thread_instructions: int = 0
    per_op_class: Dict[str, int] = field(default_factory=dict)
    branches: int = 0
    divergent_branches: int = 0

    def record(self, instr, active_count: int) -> None:
        self.instructions += 1
        self.thread_instructions += active_count
        key = instr.op_class.value
        self.per_op_class[key] = self.per_op_class.get(key, 0) + active_count


class _Split:
    __slots__ = ("warp", "pc", "mask", "parked")

    def __init__(self, warp: FunctionalWarp, pc: int, mask: int) -> None:
        self.warp = warp
        self.pc = pc
        self.mask = mask
        self.parked = False


def _launch_splits(launch: LaunchRows, cta: int, shared: SharedMemory):
    """One split per warp of CTA ``cta``, at PC 0 with its launch mask
    (a partial last warp launches its low lanes only).  One CTA runs at
    a time, so a warp's index in its CTA is its slot: its ``%warpid``."""
    n_warps = (launch.cta_size + launch.width - 1) // launch.width
    return [
        _Split(FunctionalWarp(launch, w, w, cta, shared), 0, launch.threads(w)[3])
        for w in range(n_warps)
    ]


def run_kernel(
    kernel: Kernel,
    memory: MemoryImage,
    warp_width: int = 32,
    max_steps: int = 20_000_000,
) -> InterpResult:
    """Run all CTAs of ``kernel`` to completion; mutates ``memory``."""
    executor = Executor(kernel, memory)
    launch = LaunchRows(kernel, warp_width)
    result = InterpResult()
    # One errstate for the whole launch, as ``GPUDevice.run`` enters:
    # compiled plans skip the per-issue one the interpreter pays.
    with np.errstate(all="ignore"):
        for cta in range(kernel.grid_size):
            shared = SharedMemory(max(kernel.shared_bytes, 4))
            splits = _launch_splits(launch, cta, shared)
            _run_cta(kernel, executor, splits, result, max_steps)
    return result


def _merge(splits: List[_Split], split: _Split) -> None:
    """Merge ``split`` into an existing same-warp same-PC runnable split."""
    for other in splits:
        if other is split or other.parked:
            continue
        if other.warp is split.warp and other.pc == split.pc:
            other.mask = other.mask | split.mask
            splits.remove(split)
            return


def _run_cta(kernel, executor, splits, result, max_steps) -> None:
    program = kernel.program
    steps = 0
    while splits:
        steps += 1
        if steps > max_steps:
            raise InterpreterError(
                "kernel %s exceeded %d steps (infinite loop?)" % (kernel.name, max_steps)
            )
        runnable = [s for s in splits if not s.parked]
        if not runnable:
            # All live threads parked at the barrier: release everyone.
            for s in splits:
                s.parked = False
                s.pc += 1
                _merge(splits, s)
            continue
        split = min(runnable, key=lambda s: s.pc)
        instr = program[split.pc]
        outcome = executor.execute(instr, split.warp, split.mask)
        active = split.mask if outcome is None else outcome.active_mask
        result.record(instr, active.bit_count())
        op = instr.op
        if op is Op.BRA:
            result.branches += 1
            assert outcome is not None  # a branch plan always reports
            taken = bools_to_mask(outcome.taken) & split.mask
            fallthrough = split.mask & ~taken
            if taken and fallthrough:
                result.divergent_branches += 1
                split.mask = taken
                split.pc = instr.target
                sibling = _Split(split.warp, instr.pc + 1, fallthrough)
                splits.append(sibling)
                _merge(splits, sibling)
                _merge(splits, split)
            elif taken:
                split.pc = instr.target
                _merge(splits, split)
            else:
                split.pc += 1
                _merge(splits, split)
        elif op is Op.EXIT:
            splits.remove(split)
        elif op is Op.BAR:
            split.parked = True
        else:
            split.pc += 1
            _merge(splits, split)
