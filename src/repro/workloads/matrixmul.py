"""MatrixMul (CUDA SDK) — shared-memory tiled matrix multiply.

Each 256-thread CTA computes one 16x16 tile of C, looping over K in
16-wide tile steps: coalesced global loads into shared memory, a
barrier, a fully unrolled 16-step inner product, and another barrier.
Regular: uniform trip counts, no divergence beyond none at all.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

TILE = 16

PARAMS = {
    "tiny": dict(dim=16),
    "bench": dict(dim=32),
    "full": dict(dim=64),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    dim = PARAMS[size]["dim"]
    tiles = dim // TILE
    gen = common.rng("matrixmul", size)
    a = gen.uniform(-1.0, 1.0, (dim, dim))
    b = gen.uniform(-1.0, 1.0, (dim, dim))

    memory = MemoryImage()
    a_a = memory.alloc_array(a.ravel())
    a_b = memory.alloc_array(b.ravel())
    a_c = memory.alloc(dim * dim * 4)

    kb = KernelBuilder("matrixmul")
    r, c, trow, tcol, row, col = kb.regs("r", "c", "trow", "tcol", "row", "col")
    kt, p, acc, addr, va, vb, tmp = kb.regs("kt", "p", "acc", "addr", "va", "vb", "tmp")
    sh_a, sh_b = 0, TILE * TILE * 4  # shared layout: A tile then B tile

    kb.shr(r, kb.tid, 4)           # row within tile
    kb.and_(c, kb.tid, TILE - 1)   # col within tile
    kb.shr(trow, kb.ctaid, kb.param(3))   # ctaid / tiles (log2 shift)
    kb.and_(tcol, kb.ctaid, tiles - 1)
    kb.mad(row, trow, TILE, r)
    kb.mad(col, tcol, TILE, c)
    kb.mov(acc, 0.0)
    kb.mov(kt, 0)
    kb.label("ktile")
    # Load A[row, kt*16 + c] and B[kt*16 + r, col] into shared.
    kb.mad(addr, row, dim, c)
    kb.mad(addr, kt, TILE, addr)
    kb.mul(addr, addr, 4)
    kb.ld(va, kb.param(0), index=addr)
    kb.mad(addr, kt, TILE, r)
    kb.mad(addr, addr, dim, col)
    kb.mul(addr, addr, 4)
    kb.ld(vb, kb.param(1), index=addr)
    kb.mad(addr, r, TILE, c)
    kb.mul(addr, addr, 4)
    kb.st(sh_a, va, index=addr, space=MemSpace.SHARED)
    kb.st(sh_b, vb, index=addr, space=MemSpace.SHARED)
    kb.bar()
    ra, ca = kb.regs("ra", "ca")
    kb.mul(ra, r, TILE * 4)  # byte offset of A-tile row r
    kb.mul(ca, c, 4)         # byte offset of B-tile column c
    for k in range(TILE):
        # A element sh_a[r*16 + k]; B element sh_b[k*16 + c].
        kb.ld(va, sh_a, index=ra, offset=k * 4, space=MemSpace.SHARED)
        kb.ld(vb, sh_b, index=ca, offset=k * TILE * 4, space=MemSpace.SHARED)
        kb.mad(acc, va, vb, acc)
    kb.bar()
    kb.add(kt, kt, 1)
    kb.setp(p, CmpOp.LT, kt, tiles)
    kb.bra("ktile", cond=p)
    kb.mad(addr, row, dim, col)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(2), acc, index=addr)
    kb.exit_()

    import math

    kernel = kb.build(
        cta_size=256,
        grid_size=tiles * tiles,
        params=(a_a, a_b, a_c, int(math.log2(tiles)) if tiles > 1 else 0),
        shared_bytes=2 * TILE * TILE * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_c, dim * dim).reshape(dim, dim)
        np.testing.assert_allclose(got, a @ b, rtol=1e-9)

    return common.Instance(
        name="matrixmul",
        kernel=kernel,
        memory=memory,
        outputs=[("c", a_c, dim * dim)],
        numpy_check=numpy_check,
        size=size,
    )
