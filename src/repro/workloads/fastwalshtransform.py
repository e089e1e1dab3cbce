"""FastWalshTransform (CUDA SDK) — in-shared-memory butterfly.

Each thread owns two elements of a CTA-resident array and performs the
classic Walsh-Hadamard butterflies, halving the stride each pass with
a barrier between passes.  Fully uniform control flow.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

PARAMS = {
    "tiny": dict(ctas=1),
    "bench": dict(ctas=4),
    "full": dict(ctas=16),
}

CTA = 256
N = 2 * CTA  # elements per CTA


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    ctas = PARAMS[size]["ctas"]
    total = N * ctas
    gen = common.rng("fastwalshtransform", size)
    data = gen.uniform(-1.0, 1.0, total)

    memory = MemoryImage()
    a_io = memory.alloc_array(data)

    kb = KernelBuilder("fastwalshtransform")
    stride, pos, pr, addr, a, b, base, tmp = kb.regs(
        "stride", "pos", "pr", "addr", "a", "b", "base", "tmp"
    )
    # Stage two elements per thread into shared memory.
    kb.mul(base, kb.ctaid, N)
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(a, kb.param(0), index=addr)
    kb.ld(b, kb.param(0), index=addr, offset=CTA * 4)
    kb.mul(tmp, kb.tid, 4)
    kb.st(0, a, index=tmp, space=MemSpace.SHARED)
    kb.st(0, b, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.bar()
    kb.mov(stride, N // 2)
    kb.label("pass")
    # pos = 2*tid - (tid & (stride-1))
    kb.sub(tmp, stride, 1)
    kb.and_(tmp, kb.tid, tmp)
    kb.mul(pos, kb.tid, 2)
    kb.sub(pos, pos, tmp)
    kb.mul(addr, pos, 4)
    kb.ld(a, 0, index=addr, space=MemSpace.SHARED)
    kb.mul(tmp, stride, 4)
    kb.add(tmp, tmp, addr)
    kb.ld(b, 0, index=tmp, space=MemSpace.SHARED)
    kb.add(pos, a, b)
    kb.st(0, pos, index=addr, space=MemSpace.SHARED)
    kb.sub(pos, a, b)
    kb.st(0, pos, index=tmp, space=MemSpace.SHARED)
    kb.bar()
    kb.shr(stride, stride, 1)
    kb.setp(pr, CmpOp.GE, stride, 1)
    kb.bra("pass", cond=pr)
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
            h = 1
            # Equivalent standard iterative WHT (order-independent result).
            while h < N:
                block = block.reshape(-1, 2 * h)
                top, bot = block[:, :h].copy(), block[:, h:].copy()
                block[:, :h], block[:, h:] = top + bot, top - bot
                block = block.ravel()
                h *= 2
            np.testing.assert_allclose(got[c * N : (c + 1) * N], block, rtol=1e-9)

    return common.Instance(
        name="fastwalshtransform",
        kernel=kernel,
        memory=memory,
        outputs=[("io", a_io, total)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
