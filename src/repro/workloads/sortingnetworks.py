"""SortingNetworks (CUDA SDK) — bitonic sort in shared memory.

Each thread owns one compare-exchange per pass; the swap decision
``(a > b) == direction`` is taken with a real branch (as the SDK kernel
does through its ``Comparator``), so every pass diverges data-
dependently, separated by barriers.  N = 2 x CTA elements.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

CTA = 128
N = 2 * CTA

PARAMS = {
    "tiny": dict(ctas=1),
    "bench": dict(ctas=4),
    "full": dict(ctas=8),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    ctas = PARAMS[size]["ctas"]
    total = N * ctas
    gen = common.rng("sortingnetworks", size)
    data = gen.permutation(total).astype(np.float64)
    vals = data * 3.0 + 1.0  # payload travelling with each key

    memory = MemoryImage()
    a_io = memory.alloc_array(data)
    a_val = memory.alloc_array(vals)

    kb = KernelBuilder("sortingnetworks")
    base, addr, tmp, a, b, pos, pr = kb.regs("base", "addr", "tmp", "a", "b", "pos", "pr")
    sz, stride, ddd, gt, va, vb = kb.regs("sz", "stride", "ddd", "gt", "va", "vb")
    VOFF = N * 4  # shared-memory offset of the value plane
    kb.mul(base, kb.ctaid, N)
    # Stage two key-value pairs per thread.
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.ld(a, kb.param(0), index=addr)
    kb.ld(b, kb.param(0), index=addr, offset=CTA * 4)
    kb.ld(va, kb.param(1), index=addr)
    kb.ld(vb, kb.param(1), index=addr, offset=CTA * 4)
    kb.mul(tmp, kb.tid, 4)
    kb.st(0, a, index=tmp, space=MemSpace.SHARED)
    kb.st(0, b, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.st(VOFF, va, index=tmp, space=MemSpace.SHARED)
    kb.st(VOFF, vb, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.bar()
    kb.mov(sz, 2)
    kb.label("size_loop")
    # ddd = ascending iff (tid & (size/2)) == 0
    kb.shr(ddd, sz, 1)
    kb.and_(ddd, kb.tid, ddd)
    kb.setp(ddd, CmpOp.EQ, ddd, 0)
    kb.shr(stride, sz, 1)
    kb.label("stride_loop")
    kb.bar()
    # pos = 2*tid - (tid & (stride - 1))
    kb.sub(tmp, stride, 1)
    kb.and_(tmp, kb.tid, tmp)
    kb.mul(pos, kb.tid, 2)
    kb.sub(pos, pos, tmp)
    kb.mul(addr, pos, 4)
    kb.ld(a, 0, index=addr, space=MemSpace.SHARED)
    kb.mul(tmp, stride, 4)
    kb.add(tmp, tmp, addr)
    kb.ld(b, 0, index=tmp, space=MemSpace.SHARED)
    # Divergent comparator: swap key AND value when (a > b) == ddd
    # (the SDK sorts key-value pairs; the swap path is the fat side).
    kb.setp(gt, CmpOp.GT, a, b)
    kb.setp(gt, CmpOp.EQ, gt, ddd)
    kb.bra("no_swap", cond=gt, neg=True)
    kb.ld(va, VOFF, index=addr, space=MemSpace.SHARED)
    kb.ld(vb, VOFF, index=tmp, space=MemSpace.SHARED)
    kb.st(0, b, index=addr, space=MemSpace.SHARED)
    kb.st(0, a, index=tmp, space=MemSpace.SHARED)
    kb.st(VOFF, vb, index=addr, space=MemSpace.SHARED)
    kb.st(VOFF, va, index=tmp, space=MemSpace.SHARED)
    kb.label("no_swap")
    kb.shr(stride, stride, 1)
    kb.setp(pr, CmpOp.GE, stride, 1)
    kb.bra("stride_loop", cond=pr)
    kb.bar()
    kb.mul(sz, sz, 2)
    kb.setp(pr, CmpOp.LE, sz, N)
    kb.bra("size_loop", cond=pr)
    # Write back keys and values.
    kb.add(addr, base, kb.tid)
    kb.mul(addr, addr, 4)
    kb.mul(tmp, kb.tid, 4)
    kb.ld(a, 0, index=tmp, space=MemSpace.SHARED)
    kb.ld(b, 0, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.st(kb.param(0), a, index=addr)
    kb.st(kb.param(0), b, index=addr, offset=CTA * 4)
    kb.ld(va, VOFF, index=tmp, space=MemSpace.SHARED)
    kb.ld(vb, VOFF, index=tmp, offset=CTA * 4, space=MemSpace.SHARED)
    kb.st(kb.param(1), va, index=addr)
    kb.st(kb.param(1), vb, index=addr, offset=CTA * 4)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA, grid_size=ctas, params=(a_io, a_val), shared_bytes=2 * N * 4
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_io, total)
        got_vals = mem.read_array(a_val, total)
        for c in range(ctas):
            block = got[c * N : (c + 1) * N]
            # The last merge stage (size == N, ddd from tid) sorts the
            # full block ascending; values must follow their keys.
            expect = np.sort(data[c * N : (c + 1) * N])
            np.testing.assert_array_equal(block, expect)
            np.testing.assert_array_equal(
                got_vals[c * N : (c + 1) * N], expect * 3.0 + 1.0
            )

    return common.Instance(
        name="sortingnetworks",
        kernel=kernel,
        memory=memory,
        outputs=[("io", a_io, total), ("vals", a_val, total)],
        numpy_check=numpy_check,
        size=size,
    )
