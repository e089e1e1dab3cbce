"""Hotspot (Rodinia) — thermal simulation stencil.

Each CTA owns a 16x16 tile: per iteration, every thread reads its four
neighbours from shared memory (indices clamped branch-free) and
integrates the heat equation with its power density; boundary cells
take a short divergent branch that pins them to the ambient value
(Dirichlet boundary).  Mostly regular — the boundary branch touches
only edge lanes.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

DIM = 16
K_DIFF = 0.2
AMBIENT = 25.0

PARAMS = {
    "tiny": dict(ctas=2, iters=2),
    "bench": dict(ctas=4, iters=4),
    "full": dict(ctas=8, iters=8),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, iters = p["ctas"], p["iters"]
    cells = DIM * DIM
    total = cells * ctas
    gen = common.rng("hotspot", size)
    temp = gen.uniform(40.0, 90.0, total)
    power = gen.uniform(0.0, 2.0, total)

    memory = MemoryImage()
    a_temp = memory.alloc_array(temp)
    a_power = memory.alloc_array(power)

    kb = KernelBuilder("hotspot")
    r, c, it, pr, edge, addr, base = kb.regs("r", "c", "it", "pr", "edge", "addr", "base")
    t, pw, acc, nb, idx, tmp = kb.regs("t", "pw", "acc", "nb", "idx", "tmp")
    kb.shr(r, kb.tid, 4)
    kb.and_(c, kb.tid, DIM - 1)
    kb.mul(base, kb.ctaid, cells)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(t, kb.param(0), index=addr)
    kb.ld(pw, kb.param(1), index=addr)
    kb.mul(tmp, kb.tid, 4)
    kb.st(0, t, index=tmp, space=MemSpace.SHARED)
    kb.bar()
    # Edge predicate: r or c on the boundary.
    kb.setp(edge, CmpOp.EQ, r, 0)
    kb.setp(pr, CmpOp.EQ, r, DIM - 1)
    kb.or_(edge, edge, pr)
    kb.setp(pr, CmpOp.EQ, c, 0)
    kb.or_(edge, edge, pr)
    kb.setp(pr, CmpOp.EQ, c, DIM - 1)
    kb.or_(edge, edge, pr)
    kb.mov(it, 0)
    kb.label("iter")
    kb.mov(acc, 0.0)
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        kb.add(idx, r, dr)
        kb.max_(idx, idx, 0)
        kb.min_(idx, idx, DIM - 1)
        kb.mul(idx, idx, DIM)
        kb.add(tmp, c, dc)
        kb.max_(tmp, tmp, 0)
        kb.min_(tmp, tmp, DIM - 1)
        kb.add(idx, idx, tmp)
        kb.mul(idx, idx, 4)
        kb.ld(nb, 0, index=idx, space=MemSpace.SHARED)
        kb.add(acc, acc, nb)
    kb.mad(acc, t, -4.0, acc)
    kb.mad(acc, acc, K_DIFF, pw)
    kb.add(t, t, acc)
    # Divergent boundary handling: edge cells relax toward ambient.
    kb.bra("interior", cond=edge, neg=True)
    kb.sub(t, t, AMBIENT)
    kb.mul(t, t, 0.5)
    kb.add(t, t, AMBIENT)
    kb.label("interior")
    kb.bar()
    kb.mul(tmp, kb.tid, 4)
    kb.st(0, t, index=tmp, space=MemSpace.SHARED)
    kb.bar()
    kb.add(it, it, 1)
    kb.setp(pr, CmpOp.LT, it, iters)
    kb.bra("iter", cond=pr)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(0), t, index=addr)
    kb.exit_()

    kernel = kb.build(
        cta_size=cells, grid_size=ctas, params=(a_temp, a_power), shared_bytes=cells * 4
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_temp, total)
        for blk in range(ctas):
            t = temp[blk * cells : (blk + 1) * cells].reshape(DIM, DIM).copy()
            pw = power[blk * cells : (blk + 1) * cells].reshape(DIM, DIM)
            rr, cc = np.meshgrid(np.arange(DIM), np.arange(DIM), indexing="ij")
            edge = (rr == 0) | (rr == DIM - 1) | (cc == 0) | (cc == DIM - 1)
            for _ in range(iters):
                acc = np.zeros_like(t)
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    acc += t[np.clip(rr + dr, 0, DIM - 1), np.clip(cc + dc, 0, DIM - 1)]
                tn = t + ((acc + t * -4.0) * K_DIFF + pw)
                tn[edge] = (tn[edge] - AMBIENT) * 0.5 + AMBIENT
                t = tn
            np.testing.assert_allclose(
                got[blk * cells : (blk + 1) * cells], t.ravel(), rtol=1e-9
            )

    return common.Instance(
        name="hotspot",
        kernel=kernel,
        memory=memory,
        outputs=[("temp", a_temp, total)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
