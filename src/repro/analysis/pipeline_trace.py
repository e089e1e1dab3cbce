"""Execution-pipeline traces — reproduces the paper's Figure 2.

Figure 2 contrasts the contents of the execution pipeline for classic
SIMT, SBI (with and without reconvergence constraints), SWI, and
SBI+SWI on a six-instruction if-then-else executed by two warps of
four threads.  :func:`figure2_example` builds that kernel and machine,
:func:`trace_kernel` records every issue, and :func:`render_trace`
draws an ASCII version of the figure (one row per issue slot, one
column per cycle, ``wX:N [mask]`` per issued instruction).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.policy.observers import IssueRecord, IssueTrace
from repro.core.simulator import simulate
from repro.functional.memory import MemoryImage
from repro.isa.builder import Kernel, KernelBuilder
from repro.timing.config import SMConfig
from repro.timing.masks import mask_str
from repro.timing.stats import Stats


def trace_kernel(
    kernel: Kernel, memory: MemoryImage, config: SMConfig
) -> Tuple[Stats, List[IssueRecord]]:
    """Run a kernel and capture every instruction issue."""
    trace = IssueTrace()
    stats = simulate(kernel, memory, config, observers=[trace])
    return stats, trace.events


def render_trace(
    events: List[IssueRecord],
    warp_width: int,
    max_cycles: Optional[int] = None,
    label: str = "",
) -> str:
    """ASCII pipeline diagram: columns are cycles, rows are issue slots."""
    if not events:
        return "(no issues)"
    start = min(e[0] for e in events)
    end = max(e[0] for e in events)
    if max_cycles is not None:
        end = min(end, start + max_cycles - 1)
    by_cycle: Dict[int, List[IssueRecord]] = {}
    for e in events:
        if e[0] <= end:
            by_cycle.setdefault(e[0], []).append(e)
    slots = max((len(v) for v in by_cycle.values()), default=1)
    cell = warp_width + 8
    lines = []
    if label:
        lines.append(label)
    header = "cycle | " + " | ".join(
        ("%d" % (start + i)).center(cell) for i in range(end - start + 1)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for slot in range(slots):
        cells = []
        for cyc in range(start, end + 1):
            issued = by_cycle.get(cyc, [])
            if slot < len(issued):
                _, wid, pc, origin, mask, _ = issued[slot]
                tag = {"primary": " ", "sbi": "b", "swi": "w"}[origin]
                cells.append(
                    ("w%d:%-2d%s%s" % (wid, pc, tag, mask_str(mask, warp_width))).center(cell)
                )
            else:
                cells.append(" " * cell)
        lines.append("  I%d  | " % (slot + 1) + " | ".join(cells))
    return "\n".join(lines)


def figure2_kernel() -> KernelBuilder:
    """The paper's running example: a 6-instruction if-then-else.

    PCs after assembly: 0 = setp, 1 = branch, 2-4 = if path,
    5 = branch over else... laid out to match the paper's numbering
    closely (instruction "1" is the divergent branch, "2"-"4" the if
    path, "5" the else path, "6" the reconverged tail).
    """
    kb = KernelBuilder("figure2")
    t, p, v, addr = kb.regs("t", "p", "v", "addr")
    kb.and_(p, kb.tid, 1)  # pc 0: threads 1 and 3 of each warp take "else"
    kb.bra("else_path", cond=p)  # pc 1
    kb.mad(v, t, 2, 1)  # pc 2
    kb.mad(v, v, 3, 1)  # pc 3
    kb.mad(v, v, 5, 1)  # pc 4  (if path: instructions 2..4)
    kb.bra("join")  # pc 5
    kb.label("else_path")
    kb.mad(v, t, 7, 2)  # pc 6  (else path: instruction "5")
    kb.label("join")
    kb.mul(addr, kb.tid, 4)  # pc 7  (instruction "6": reconverged)
    kb.st(kb.param(0), v, index=addr)
    kb.exit_()
    return kb


def figure2_config(mode: str) -> SMConfig:
    """A 2-warp, 4-thread machine per Figure 2's illustration."""
    widths = dict(
        warp_count=2,
        warp_width=4,
        mad_lanes=4 if mode not in ("baseline",) else 8,
        sfu_width=2,
        lsu_width=4,
        fetch_width=2,
        dram_bandwidth=64.0,
        # Schematic timing, as in the paper's illustration: short
        # execution latency so the diagram stays compact.
        exec_latency=2,
    )
    from repro.core import presets

    if mode == "baseline":
        return presets.baseline(**widths)
    if mode == "warp64":
        return presets.warp64(**widths)
    if mode == "sbi":
        return presets.sbi(**widths)
    if mode == "sbi_nc":
        return presets.sbi(sbi_constraints=False, **widths)
    if mode == "swi":
        return presets.swi(lane_shuffle="identity", **widths)
    if mode == "sbi_swi":
        return presets.sbi_swi(lane_shuffle="identity", **widths)
    raise ValueError(mode)


def figure2_example(mode: str) -> Tuple[Stats, str]:
    """Trace the Figure 2 kernel under one scheduler mode."""
    kb = figure2_kernel()
    memory = MemoryImage()
    out = memory.alloc(8 * 4)
    kernel = kb.build(cta_size=8, grid_size=1, params=(out,))
    config = figure2_config(mode)
    stats, events = trace_kernel(kernel, memory, config)
    art = render_trace(events, config.warp_width, label="mode=%s" % mode)
    return stats, art
