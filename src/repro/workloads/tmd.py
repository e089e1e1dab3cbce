"""TMD — Table Maker's Dilemma exhaustive search (Fortin et al.).

Each thread scans a slice of candidate arguments; candidates whose
fractional image lands near 0 or near 1 enter one of two data-dependent
refinement loops, both of which jump into a shared *record* block that
can break out of the whole search (multi-level exit).  The CFG is
unstructured: the record block joins paths from different nesting
levels, which is exactly the shape where thread-frontier reconvergence
beats the baseline stack (paper section 5.1).

Two variants reproduce the paper's layout experiment:

* ``tmd2`` — blocks emitted in thread-frontier order (what nvcc
  produces for every kernel but one);
* ``tmd1`` — the *same* CFG with the low-refinement blocks emitted
  after the loop tail, violating the frontier-layout property (the
  paper's "improper code layout" data point; it performs worse).

Both are built with ``layout="as_is"`` so the emission order survives.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

ALPHA = 0.6180339887498949  # frac(golden ratio)
EPS = 0.05
REFINE = 8
MAX_HITS = 4
CTA = 256

PARAMS = {
    "tiny": dict(ctas=1, candidates=12),
    "bench": dict(ctas=4, candidates=24),
    "full": dict(ctas=8, candidates=48),
}


def _emit_main(kb: KernelBuilder, candidates: int):
    """Blocks shared by both variants; returns the emit closures."""
    i, m, x, y, k, pr, pr2, hits, addr = kb.regs(
        "i", "m", "x", "y", "k", "pr", "pr2", "hits", "addr"
    )

    def prologue():
        common.emit_global_tid(kb, i)
        kb.mov(m, 0)
        kb.mov(hits, 0)

    def loop_head():
        kb.label("loop")
        kb.mad(x, i, candidates, m)
        kb.add(x, x, 7.0)
        kb.mul(y, x, ALPHA)
        kb.floor(addr, y)
        kb.sub(y, y, addr)
        kb.setp(pr, CmpOp.LT, y, EPS)
        kb.bra("low", cond=pr)
        kb.setp(pr, CmpOp.GT, y, 1.0 - EPS)
        kb.bra("high", cond=pr)
        kb.bra("next")

    def low():
        # Refine toward 0: doubling walk, data-dependent exit.
        kb.label("low")
        kb.mov(k, 0)
        kb.label("low_loop")
        kb.add(y, y, y)
        kb.floor(addr, y)
        kb.sub(y, y, addr)
        kb.add(k, k, 1)
        kb.setp(pr, CmpOp.LT, k, REFINE)
        kb.setp(pr2, CmpOp.LT, y, 0.5)
        kb.and_(pr, pr, pr2)
        kb.bra("low_loop", cond=pr)
        kb.bra("record")

    def high():
        # Refine toward 1: mirrored walk.
        kb.label("high")
        kb.mov(k, 0)
        kb.label("high_loop")
        kb.sub(y, 1.0, y)
        kb.add(y, y, y)
        kb.floor(addr, y)
        kb.sub(y, y, addr)
        kb.add(k, k, 1)
        kb.setp(pr, CmpOp.LT, k, REFINE)
        kb.setp(pr2, CmpOp.GT, y, 0.5)
        kb.and_(pr, pr, pr2)
        kb.bra("high_loop", cond=pr)
        kb.bra("record")

    def record():
        # Shared tail of both refinement paths: bump the bucket count
        # and break the whole search after MAX_HITS (multi-level exit).
        kb.label("record")
        kb.and_(addr, i, 63)
        kb.mul(addr, addr, 4)
        kb.atom_add(None, kb.param(0), 1.0, index=addr)
        kb.add(hits, hits, 1)
        kb.setp(pr, CmpOp.GE, hits, MAX_HITS)
        kb.bra("done", cond=pr)
        kb.bra("next")

    def next_block():
        kb.label("next")
        kb.add(m, m, 1)
        kb.setp(pr, CmpOp.LT, m, candidates)
        kb.bra("loop", cond=pr)
        kb.bra("done")

    def done():
        kb.label("done")
        kb.mul(addr, i, 4)
        kb.st(kb.param(1), hits, index=addr)
        kb.exit_()

    return prologue, loop_head, low, high, record, next_block, done


def build(size: str = "bench", variant: str = "tmd2") -> common.Instance:
    common.check_size(size)
    if variant not in ("tmd1", "tmd2"):
        raise ValueError("variant must be tmd1 or tmd2")
    p = PARAMS[size]
    ctas, candidates = p["ctas"], p["candidates"]
    n = CTA * ctas

    memory = MemoryImage()
    a_buckets = memory.alloc_array(np.zeros(64))
    a_hits = memory.alloc(n * 4)

    kb = KernelBuilder(variant)
    prologue, loop_head, low, high, record, next_block, done = _emit_main(kb, candidates)
    if variant == "tmd2":
        # Thread-frontier-compatible order.
        prologue()
        loop_head()
        low()
        high()
        record()
        next_block()
        done()
    else:
        # Improper layout: the low-refinement blocks live after the
        # loop tail, so their branch into `record` goes backward to a
        # non-dominating block (frontier violation).
        prologue()
        loop_head()
        high()
        record()
        next_block()
        low()
        done()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_buckets, a_hits),
        layout="as_is",
    )

    def numpy_check(mem: MemoryImage) -> None:
        hits = np.zeros(n)
        buckets = np.zeros(64)
        for t in range(n):
            h = 0
            for m in range(candidates):
                x = float(t * candidates + m + 7)
                y = x * ALPHA
                y -= np.floor(y)
                if y < EPS:
                    k = 0
                    while True:
                        y = y + y
                        y -= np.floor(y)
                        k += 1
                        if not (k < REFINE and y < 0.5):
                            break
                elif y > 1.0 - EPS:
                    k = 0
                    while True:
                        y = 1.0 - y
                        y = y + y
                        y -= np.floor(y)
                        k += 1
                        if not (k < REFINE and y > 0.5):
                            break
                else:
                    continue
                buckets[t & 63] += 1
                h += 1
                if h >= MAX_HITS:
                    break
            hits[t] = h
        np.testing.assert_array_equal(mem.read_array(a_hits, n), hits)
        np.testing.assert_array_equal(mem.read_array(a_buckets, 64), buckets)

    return common.Instance(
        name=variant,
        kernel=kernel,
        memory=memory,
        outputs=[("buckets", a_buckets, 64), ("hits", a_hits, n)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size, variant),
    )
