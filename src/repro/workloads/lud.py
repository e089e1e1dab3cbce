"""LUD (Rodinia) — in-place LU decomposition of a shared-memory tile.

Doolittle elimination over a 16x16 matrix per CTA: at step ``k`` only
the threads below the pivot row/column participate, so the active
triangle shrinks every iteration — systematic intra-warp imbalance,
one of the paper's clearest SWI targets.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

DIM = 16
CTA = DIM * DIM

PARAMS = {
    "tiny": dict(ctas=1),
    "bench": dict(ctas=4),
    "full": dict(ctas=8),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    ctas = PARAMS[size]["ctas"]
    cells = DIM * DIM
    total = cells * ctas
    gen = common.rng("lud", size)
    mats = gen.uniform(0.5, 2.0, (ctas, DIM, DIM))
    for m in mats:  # diagonally dominant => stable without pivoting
        m += np.eye(DIM) * DIM

    memory = MemoryImage()
    a_m = memory.alloc_array(mats.ravel())

    kb = KernelBuilder("lud")
    r, c, k, pr, pc, addr, base = kb.regs("r", "c", "k", "pr", "pc", "addr", "base")
    piv, lv, uv, v = kb.regs("piv", "lv", "uv", "v")
    kb.shr(r, kb.tid, 4)
    kb.and_(c, kb.tid, DIM - 1)
    kb.mul(base, kb.ctaid, cells)
    # Stage the matrix in shared memory.
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.mul(addr, kb.tid, 4)
    kb.st(0, v, index=addr, space=MemSpace.SHARED)
    kb.bar()
    kb.mov(k, 0)
    kb.label("step")
    # Column scale: threads (r > k, c == k) divide by the pivot.
    kb.setp(pr, CmpOp.GT, r, k)
    kb.setp(pc, CmpOp.EQ, c, k)
    kb.and_(pc, pr, pc)
    kb.bra("no_scale", cond=pc, neg=True)
    kb.mad(addr, k, DIM, k)
    kb.mul(addr, addr, 4)
    kb.ld(piv, 0, index=addr, space=MemSpace.SHARED)
    kb.mad(addr, r, DIM, k)
    kb.mul(addr, addr, 4)
    kb.ld(v, 0, index=addr, space=MemSpace.SHARED)
    kb.div(v, v, piv)
    kb.st(0, v, index=addr, space=MemSpace.SHARED)
    kb.label("no_scale")
    kb.bar()
    # Trailing submatrix update: threads (r > k, c > k).
    kb.setp(pr, CmpOp.GT, r, k)
    kb.setp(pc, CmpOp.GT, c, k)
    kb.and_(pc, pr, pc)
    kb.bra("no_update", cond=pc, neg=True)
    kb.mad(addr, r, DIM, k)
    kb.mul(addr, addr, 4)
    kb.ld(lv, 0, index=addr, space=MemSpace.SHARED)
    kb.mad(addr, k, DIM, c)
    kb.mul(addr, addr, 4)
    kb.ld(uv, 0, index=addr, space=MemSpace.SHARED)
    kb.mad(addr, r, DIM, c)
    kb.mul(addr, addr, 4)
    kb.ld(v, 0, index=addr, space=MemSpace.SHARED)
    kb.mul(lv, lv, uv)
    kb.sub(v, v, lv)
    kb.st(0, v, index=addr, space=MemSpace.SHARED)
    kb.label("no_update")
    kb.bar()
    kb.add(k, k, 1)
    kb.setp(pr, CmpOp.LT, k, DIM - 1)
    kb.bra("step", cond=pr)
    # Write back.
    kb.mul(addr, kb.tid, 4)
    kb.ld(v, 0, index=addr, space=MemSpace.SHARED)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(0), v, index=addr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA, grid_size=ctas, params=(a_m,), shared_bytes=cells * 4
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_m, total)
        for b in range(ctas):
            m = mats[b].copy()
            for k in range(DIM - 1):
                m[k + 1 :, k] = m[k + 1 :, k] / m[k, k]
                m[k + 1 :, k + 1 :] -= np.outer(m[k + 1 :, k], m[k, k + 1 :])
            np.testing.assert_allclose(
                got[b * cells : (b + 1) * cells].reshape(DIM, DIM), m, rtol=1e-9
            )

    return common.Instance(
        name="lud",
        kernel=kernel,
        memory=memory,
        outputs=[("lu", a_m, total)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
