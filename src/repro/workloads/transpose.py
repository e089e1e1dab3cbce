"""Transpose (CUDA SDK) — shared-memory tiled matrix transpose.

Each CTA moves a 16x16 tile through padded shared memory (the classic
17-column padding avoiding bank conflicts), with coalesced loads and
stores.  The tile round-trips ``reps`` times so the working set stays
L1-resident after the cold pass — the sizing knob that keeps this
kernel in the paper's regular (compute-limited) IPC band.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

TILE = 16
PAD = TILE + 1

PARAMS = {
    "tiny": dict(dim=32, reps=2),
    "bench": dict(dim=64, reps=3),
    "full": dict(dim=128, reps=4),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    dim, reps = p["dim"], p["reps"]
    tiles = dim // TILE
    gen = common.rng("transpose", size)
    src = gen.uniform(-1.0, 1.0, (dim, dim))

    memory = MemoryImage()
    a_in = memory.alloc_array(src.ravel())
    a_out = memory.alloc(dim * dim * 4)

    kb = KernelBuilder("transpose")
    r, c, trow, tcol, it, pr = kb.regs("r", "c", "trow", "tcol", "it", "pr")
    addr, v, sh = kb.regs("addr", "v", "sh")
    kb.shr(r, kb.tid, 4)
    kb.and_(c, kb.tid, TILE - 1)
    kb.shr(trow, kb.ctaid, kb.param(2))
    kb.and_(tcol, kb.ctaid, tiles - 1)
    kb.mov(it, 0)
    kb.label("rep")
    # Coalesced load in[trow*16+r, tcol*16+c] -> sh[r][c] (padded).
    kb.mad(addr, trow, TILE, r)
    kb.mul(addr, addr, dim)
    kb.mad(addr, tcol, TILE, addr)
    kb.add(addr, addr, c)
    kb.mul(addr, addr, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.mad(sh, r, PAD, c)
    kb.mul(sh, sh, 4)
    kb.st(0, v, index=sh, space=MemSpace.SHARED)
    kb.bar()
    # Coalesced store out[tcol*16+r, trow*16+c] <- sh[c][r].
    kb.mad(sh, c, PAD, r)
    kb.mul(sh, sh, 4)
    kb.ld(v, 0, index=sh, space=MemSpace.SHARED)
    kb.mad(addr, tcol, TILE, r)
    kb.mul(addr, addr, dim)
    kb.mad(addr, trow, TILE, addr)
    kb.add(addr, addr, c)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(1), v, index=addr)
    kb.bar()
    kb.add(it, it, 1)
    kb.setp(pr, CmpOp.LT, it, reps)
    kb.bra("rep", cond=pr)
    kb.exit_()

    import math

    kernel = kb.build(
        cta_size=256,
        grid_size=tiles * tiles,
        params=(a_in, a_out, int(math.log2(tiles)) if tiles > 1 else 0),
        shared_bytes=TILE * PAD * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_out, dim * dim).reshape(dim, dim)
        np.testing.assert_allclose(got, src.T, rtol=1e-12)

    return common.Instance(
        name="transpose",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, dim * dim)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
