"""Mandelbrot (CUDA SDK) — escape-time fractal rendering.

Each thread iterates one pixel's orbit until it escapes or hits the
iteration cap — the textbook intra-warp divergence pattern.  As in the
paper's observation, the outer loop over row blocks carries a thread
block synchronization barrier, which prevents warp-splits from running
ahead across iterations (section 5.1's Mandelbrot discussion).
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

WIDTH = 32
CTA = 256
ROWS_PER_PASS = CTA // WIDTH  # 8

PARAMS = {
    "tiny": dict(ctas=1, passes=1, max_iter=24),
    "bench": dict(ctas=4, passes=2, max_iter=48),
    "full": dict(ctas=8, passes=4, max_iter=96),
}

X0, Y0 = -2.0, -1.25
DX, DY = 2.5 / WIDTH, 2.5 / 128


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, passes, max_iter = p["ctas"], p["passes"], p["max_iter"]
    pixels = CTA * passes * ctas

    memory = MemoryImage()
    a_out = memory.alloc(pixels * 4)

    kb = KernelBuilder("mandelbrot")
    px, py, blk, pr, addr = kb.regs("px", "py", "blk", "pr", "addr")
    cr, ci, zr, zi, zr2, zi2, it, tmp = kb.regs(
        "cr", "ci", "zr", "zi", "zr2", "zi2", "it", "tmp"
    )
    kb.and_(px, kb.tid, WIDTH - 1)
    kb.shr(py, kb.tid, 5)
    kb.mov(blk, 0)
    kb.label("rowblock")
    # c = (x0 + px dx, y0 + (global row) dy)
    kb.mad(cr, px, DX, X0)
    kb.mad(tmp, kb.ctaid, passes, blk)
    kb.mul(tmp, tmp, ROWS_PER_PASS)
    kb.add(tmp, tmp, py)
    kb.mad(ci, tmp, DY, Y0)
    kb.mov(zr, 0.0)
    kb.mov(zi, 0.0)
    kb.mov(it, 0)
    kb.label("orbit")
    kb.mul(zr2, zr, zr)
    kb.mul(zi2, zi, zi)
    kb.add(tmp, zr2, zi2)
    kb.setp(pr, CmpOp.GT, tmp, 4.0)
    kb.bra("escaped", cond=pr)
    kb.mul(zi, zi, zr)
    kb.mad(zi, zi, 1.0, zi)  # zi = 2 zr zi (via zi*zr + zi*zr)
    kb.add(zi, zi, ci)
    kb.sub(zr, zr2, zi2)
    kb.add(zr, zr, cr)
    kb.add(it, it, 1)
    kb.setp(pr, CmpOp.LT, it, max_iter)
    kb.bra("orbit", cond=pr)
    kb.label("escaped")
    # Store the iteration count for this pass's pixel.
    kb.mad(addr, kb.ctaid, passes, blk)
    kb.mul(addr, addr, CTA)
    kb.add(addr, addr, kb.tid)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(0), it, index=addr)
    # The paper notes a block-wide barrier gates run-ahead here.
    kb.bar()
    kb.add(blk, blk, 1)
    kb.setp(pr, CmpOp.LT, blk, passes)
    kb.bra("rowblock", cond=pr)
    kb.exit_()

    kernel = kb.build(cta_size=CTA, grid_size=ctas, params=(a_out,))

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_out, pixels)
        expect = np.empty(pixels)
        for cta in range(ctas):
            for blk in range(passes):
                for t in range(CTA):
                    px = t & (WIDTH - 1)
                    py = t >> 5
                    row = (cta * passes + blk) * ROWS_PER_PASS + py
                    cr, ci = X0 + px * DX, Y0 + row * DY
                    zr = zi = 0.0
                    it = 0
                    while it < max_iter:
                        zr2, zi2 = zr * zr, zi * zi
                        if zr2 + zi2 > 4.0:
                            break
                        zi = zi * zr
                        zi = zi + zi + ci
                        zr = zr2 - zi2 + cr
                        it += 1
                    expect[(cta * passes + blk) * CTA + t] = it
        np.testing.assert_array_equal(got, expect)

    return common.Instance(
        name="mandelbrot",
        kernel=kernel,
        memory=memory,
        outputs=[("iters", a_out, pixels)],
        numpy_check=numpy_check,
        size=size,
    )
