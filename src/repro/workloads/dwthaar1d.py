"""DWTHaar1D (CUDA SDK) — one-dimensional Haar wavelet transform.

Level ``l`` has ``n = N / 2^(l+1)`` active threads computing the
approximation and detail coefficients; threads above ``n`` idle through
the barrier.  Warps deactivate wholesale at the upper levels, so the
divergence is mostly warp-aligned — the paper classifies it regular.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

INV_SQRT2 = float(1.0 / np.sqrt(2.0))
CTA = 256
N = 2 * CTA

PARAMS = {
    "tiny": dict(ctas=1, levels=4),
    "bench": dict(ctas=4, levels=7),
    "full": dict(ctas=8, levels=9),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, levels = p["ctas"], p["levels"]
    total = N * ctas
    gen = common.rng("dwthaar1d", size)
    data = gen.uniform(-1.0, 1.0, total)

    memory = MemoryImage()
    a_io = memory.alloc_array(data)

    kb = KernelBuilder("dwthaar1d")
    nreg, lvl, pr, act, addr, a, b, tmp, base = kb.regs(
        "n", "lvl", "pr", "act", "addr", "a", "b", "tmp", "base"
    )
    kb.mul(base, kb.ctaid, N)
    # Stage 2 elements per thread into shared.
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(a, kb.param(0), index=addr)
    kb.ld(b, kb.param(0), index=addr, offset=CTA * 4)
    kb.mul(tmp, kb.tid, 4)
    kb.st(0, a, index=tmp, space=MemSpace.SHARED)
    kb.st(0, b, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.bar()
    kb.mov(nreg, CTA)
    kb.mov(lvl, 0)
    kb.label("level")
    kb.setp(act, CmpOp.LT, kb.tid, nreg)
    # if tid < n: a = sh[2*tid], b = sh[2*tid+1]
    kb.mul(addr, kb.tid, 8)
    kb.ld(a, 0, index=addr, space=MemSpace.SHARED, pred=act)
    kb.ld(b, 0, index=addr, offset=4, space=MemSpace.SHARED, pred=act)
    kb.bar()
    # approx -> sh[tid], detail -> sh[n + tid]
    kb.add(tmp, a, b, pred=act)
    kb.mul(tmp, tmp, INV_SQRT2, pred=act)
    kb.mul(addr, kb.tid, 4)
    kb.st(0, tmp, index=addr, space=MemSpace.SHARED, pred=act)
    kb.sub(tmp, a, b, pred=act)
    kb.mul(tmp, tmp, INV_SQRT2, pred=act)
    kb.mul(addr, nreg, 4)
    kb.mad(addr, kb.tid, 4, addr)
    kb.st(0, tmp, index=addr, space=MemSpace.SHARED, pred=act)
    kb.bar()
    kb.shr(nreg, nreg, 1)
    kb.add(lvl, lvl, 1)
    kb.setp(pr, CmpOp.LT, lvl, levels)
    kb.bra("level", cond=pr)
    # Write back.
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.mul(tmp, kb.tid, 4)
    kb.ld(a, 0, index=tmp, space=MemSpace.SHARED)
    kb.ld(b, 0, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.st(kb.param(0), a, index=addr)
    kb.st(kb.param(0), b, index=addr, offset=CTA * 4)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA, grid_size=ctas, params=(a_io,), shared_bytes=N * 4
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_io, total)
        for c in range(ctas):
            block = data[c * N : (c + 1) * N].copy()
            n = CTA
            for _ in range(levels):
                a = block[0 : 2 * n : 2].copy()
                b = block[1 : 2 * n : 2].copy()
                block[:n] = (a + b) * INV_SQRT2
                block[n : 2 * n] = (a - b) * INV_SQRT2
                n //= 2
            np.testing.assert_allclose(got[c * N : (c + 1) * N], block, rtol=1e-9)

    return common.Instance(
        name="dwthaar1d",
        kernel=kernel,
        memory=memory,
        outputs=[("io", a_io, total)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
