"""SRAD (Rodinia) — speckle-reducing anisotropic diffusion.

Two shared-memory stencil passes per iteration on a 16x16 tile: the
first computes the diffusion coefficient with *data-dependent clamping
branches* (``c < 0`` / ``c > 1``), the second applies the divergence
update.  The clamp branches diverge on image content, which is what
puts SRAD in the paper's irregular set.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

DIM = 16
CELLS = DIM * DIM
Q0 = 0.05
LAMBDA = 0.25

PARAMS = {
    "tiny": dict(ctas=1, iters=1),
    "bench": dict(ctas=4, iters=2),
    "full": dict(ctas=8, iters=4),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, iters = p["ctas"], p["iters"]
    total = CELLS * ctas
    gen = common.rng("srad", size)
    # Mixed-contrast image: some tiles smooth, some speckled.
    img = gen.uniform(0.2, 1.0, total)
    img[gen.uniform(0, 1, total) < 0.3] *= 3.0

    memory = MemoryImage()
    a_img = memory.alloc_array(img)

    sh_img = 0
    sh_c = CELLS * 4  # coefficient plane

    kb = KernelBuilder("srad")
    r, c, it, pr, addr, base, tmp = kb.regs("r", "c", "it", "pr", "addr", "base", "tmp")
    v, dn, ds, de, dw, g2, l_, q, cf, nb = kb.regs(
        "v", "dn", "ds", "de", "dw", "g2", "l", "q", "cf", "nb"
    )
    kb.shr(r, kb.tid, 4)
    kb.and_(c, kb.tid, DIM - 1)
    kb.mul(base, kb.ctaid, CELLS)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.mul(tmp, kb.tid, 4)
    kb.st(sh_img, v, index=tmp, space=MemSpace.SHARED)
    kb.bar()
    kb.mov(it, 0)
    kb.label("iter")

    def neighbour(dst, dr, dc):
        kb.add(addr, r, dr)
        kb.max_(addr, addr, 0)
        kb.min_(addr, addr, DIM - 1)
        kb.mul(addr, addr, DIM)
        kb.add(tmp, c, dc)
        kb.max_(tmp, tmp, 0)
        kb.min_(tmp, tmp, DIM - 1)
        kb.add(addr, addr, tmp)
        kb.mul(addr, addr, 4)
        kb.ld(dst, sh_img, index=addr, space=MemSpace.SHARED)
        kb.sub(dst, dst, v)

    # Pass 1: diffusion coefficient with clamping branches.
    kb.mul(tmp, kb.tid, 4)
    kb.ld(v, sh_img, index=tmp, space=MemSpace.SHARED)
    neighbour(dn, -1, 0)
    neighbour(ds, 1, 0)
    neighbour(dw, 0, -1)
    neighbour(de, 0, 1)
    kb.mul(g2, dn, dn)
    kb.mad(g2, ds, ds, g2)
    kb.mad(g2, dw, dw, g2)
    kb.mad(g2, de, de, g2)
    kb.mul(tmp, v, v)
    kb.add(tmp, tmp, 1e-6)
    kb.div(q, g2, tmp)
    # c = 1 / (1 + (q - q0) / (q0 * (1 + q0)))
    kb.sub(q, q, Q0)
    kb.mul(q, q, 1.0 / (Q0 * (1.0 + Q0)))
    kb.add(q, q, 1.0)
    kb.rcp(cf, q)
    # Divergent clamps (data-dependent): saturating cells recompute the
    # coefficient against the boundary exponent, as the Rodinia kernel
    # does when q leaves the stable range — both sides carry real work.
    kb.setp(pr, CmpOp.LT, cf, 0.0)
    kb.bra("not_neg", cond=pr, neg=True)
    kb.mul(cf, g2, 0.0)      # saturate low: kill the diffusion term
    kb.mad(cf, cf, 0.5, 0.0)
    kb.max_(cf, cf, 0.0)
    kb.bra("clamped")
    kb.label("not_neg")
    kb.setp(pr, CmpOp.GT, cf, 1.0)
    kb.bra("clamped", cond=pr, neg=True)
    kb.mul(cf, cf, 0.0)      # saturate high: full diffusion
    kb.add(cf, cf, 0.5)
    kb.add(cf, cf, 0.5)
    kb.min_(cf, cf, 1.0)
    kb.label("clamped")
    kb.mul(tmp, kb.tid, 4)
    kb.st(sh_c, cf, index=tmp, space=MemSpace.SHARED)
    kb.bar()

    # Pass 2: divergence update img += lambda/4 * sum(c_neighbour * d).
    def coeff_at(dst, dr, dc):
        kb.add(addr, r, dr)
        kb.max_(addr, addr, 0)
        kb.min_(addr, addr, DIM - 1)
        kb.mul(addr, addr, DIM)
        kb.add(tmp, c, dc)
        kb.max_(tmp, tmp, 0)
        kb.min_(tmp, tmp, DIM - 1)
        kb.add(addr, addr, tmp)
        kb.mul(addr, addr, 4)
        kb.ld(dst, sh_c, index=addr, space=MemSpace.SHARED)

    kb.mov(l_, 0.0)
    coeff_at(nb, 1, 0)   # south coefficient weights dS
    kb.mad(l_, nb, ds, l_)
    coeff_at(nb, 0, 1)   # east
    kb.mad(l_, nb, de, l_)
    kb.mul(tmp, kb.tid, 4)
    kb.ld(nb, sh_c, index=tmp, space=MemSpace.SHARED)
    kb.mad(l_, nb, dn, l_)
    kb.mad(l_, nb, dw, l_)
    kb.mad(v, l_, LAMBDA / 4.0, v)
    kb.bar()
    kb.mul(tmp, kb.tid, 4)
    kb.st(sh_img, v, index=tmp, space=MemSpace.SHARED)
    kb.bar()
    kb.add(it, it, 1)
    kb.setp(pr, CmpOp.LT, it, iters)
    kb.bra("iter", cond=pr)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(0), v, index=addr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CELLS, grid_size=ctas, params=(a_img,), shared_bytes=2 * CELLS * 4
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_img, total)
        rr, cc = np.meshgrid(np.arange(DIM), np.arange(DIM), indexing="ij")

        def nb_delta(t, dr, dc):
            return t[np.clip(rr + dr, 0, DIM - 1), np.clip(cc + dc, 0, DIM - 1)] - t

        for b in range(ctas):
            t = img[b * CELLS : (b + 1) * CELLS].reshape(DIM, DIM).copy()
            for _ in range(iters):
                dn = nb_delta(t, -1, 0)
                ds = nb_delta(t, 1, 0)
                dw = nb_delta(t, 0, -1)
                de = nb_delta(t, 0, 1)
                g2 = dn**2 + ds**2 + dw**2 + de**2
                q = g2 / (t * t + 1e-6)
                cf = 1.0 / ((q - Q0) * (1.0 / (Q0 * (1.0 + Q0))) + 1.0)
                cf = np.clip(cf, 0.0, 1.0)
                cs = cf[np.clip(rr + 1, 0, DIM - 1), cc]
                ce = cf[rr, np.clip(cc + 1, 0, DIM - 1)]
                lap = cs * ds + ce * de + cf * dn + cf * dw
                t = t + lap * (LAMBDA / 4.0)
            np.testing.assert_allclose(
                got[b * CELLS : (b + 1) * CELLS].reshape(DIM, DIM), t, rtol=1e-9
            )

    return common.Instance(
        name="srad",
        kernel=kernel,
        memory=memory,
        outputs=[("img", a_img, total)],
        numpy_check=numpy_check,
        size=size,
    )
