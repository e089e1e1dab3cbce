"""ConvolutionSeparable (CUDA SDK) — row convolution with halo.

Each CTA stages a tile plus left/right halos in shared memory; only
the first/last ``RADIUS`` threads perform the halo loads (divergent
apron branches), then all threads run the 17-tap filter.  The paper
groups it with the irregular applications: its IPC with 64-wide warps
is dragged below the threshold by the apron divergence and the memory
system rather than by data-dependent branches.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

RADIUS = 8
CTA = 256

PARAMS = {
    "tiny": dict(ctas=2, passes=1),
    "bench": dict(ctas=4, passes=2),
    "full": dict(ctas=16, passes=2),
}


def _taps() -> np.ndarray:
    x = np.arange(-RADIUS, RADIUS + 1, dtype=np.float64)
    k = np.exp(-(x**2) / (2.0 * (RADIUS / 3.0) ** 2))
    return k / k.sum()


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, passes = p["ctas"], p["passes"]
    n = CTA * ctas
    taps = _taps()
    gen = common.rng("convolutionseparable", size)
    img = gen.uniform(0.0, 1.0, n)

    memory = MemoryImage()
    a_in = memory.alloc_array(img)
    a_out = memory.alloc(n * 4)

    kb = KernelBuilder("convolutionseparable")
    i, addr, sh, acc, v, pr, idx, ps = kb.regs(
        "i", "addr", "sh", "acc", "v", "pr", "idx", "ps"
    )
    common.emit_global_tid(kb, i)
    kb.mov(ps, 0)
    kb.label("pass")
    # Main tile load: sh[RADIUS + tid] = in[i].
    kb.mul(addr, i, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.mul(sh, kb.tid, 4)
    kb.st(0, v, index=sh, offset=RADIUS * 4, space=MemSpace.SHARED)
    # Left apron: first RADIUS threads load in[clamp(i - RADIUS)].
    kb.setp(pr, CmpOp.LT, kb.tid, RADIUS)
    kb.bra("no_left", cond=pr, neg=True)
    kb.add(idx, i, -RADIUS)
    kb.max_(idx, idx, 0)
    kb.mul(addr, idx, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.st(0, v, index=sh, space=MemSpace.SHARED)
    kb.label("no_left")
    # Right apron: last RADIUS threads load in[clamp(i + RADIUS)].
    kb.setp(pr, CmpOp.GE, kb.tid, CTA - RADIUS)
    kb.bra("no_right", cond=pr, neg=True)
    kb.add(idx, i, RADIUS)
    kb.min_(idx, idx, n - 1)
    kb.mul(addr, idx, 4)
    kb.ld(v, kb.param(0), index=addr)
    kb.st(0, v, index=sh, offset=2 * RADIUS * 4, space=MemSpace.SHARED)
    kb.label("no_right")
    kb.bar()
    kb.mov(acc, 0.0)
    for t in range(2 * RADIUS + 1):
        kb.ld(v, 0, index=sh, offset=t * 4, space=MemSpace.SHARED)
        kb.mad(acc, v, float(taps[t]), acc)
    kb.mul(addr, i, 4)
    kb.st(kb.param(1), acc, index=addr)
    kb.bar()
    kb.add(ps, ps, 1)
    kb.setp(pr, CmpOp.LT, ps, passes)
    kb.bra("pass", cond=pr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_in, a_out),
        shared_bytes=(CTA + 2 * RADIUS) * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        idx = np.arange(n)
        acc = np.zeros(n)
        for t in range(2 * RADIUS + 1):
            off = t - RADIUS
            j = np.clip(idx + off, 0, n - 1)
            acc += img[j] * taps[t]
        np.testing.assert_allclose(mem.read_array(a_out, n), acc, rtol=1e-9)

    return common.Instance(
        name="convolutionseparable",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, n)],
        numpy_check=numpy_check,
        size=size,
    )
