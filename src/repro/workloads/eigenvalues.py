"""Eigenvalues (CUDA SDK) — bisection for symmetric tridiagonal matrices.

Each thread refines one eigenvalue interval by bisection: the outer
while loop runs until the thread's own interval converges (completely
data-dependent trip count), and the inner Sturm-sequence count takes a
data-dependent branch per diagonal element.  One of the most
branch-irregular kernels in the suite.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

MAT = 16  # tridiagonal matrix dimension
EPS = 2e-2

PARAMS = {
    "tiny": dict(ctas=1, max_iter=8),
    "bench": dict(ctas=4, max_iter=12),
    "full": dict(ctas=8, max_iter=20),
}

CTA = 256


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, max_iter = p["ctas"], p["max_iter"]
    n = CTA * ctas
    gen = common.rng("eigenvalues", size)
    diag = gen.uniform(-2.0, 2.0, MAT)
    off = gen.uniform(0.1, 1.0, MAT)  # off[0] unused
    off[0] = 0.0
    radius = float(np.abs(diag).max() + 2.0 * np.abs(off).max())

    memory = MemoryImage()
    a_d = memory.alloc_array(diag)
    a_e = memory.alloc_array(off)
    a_out = memory.alloc(2 * n * 4)

    kb = KernelBuilder("eigenvalues")
    i, addr, pr, it = kb.regs("i", "addr", "pr", "it")
    lo, hi, mid, q, count, want, k, dv, ev = kb.regs(
        "lo", "hi", "mid", "q", "count", "want", "k", "dv", "ev"
    )
    common.emit_global_tid(kb, i)
    # Stage the matrix into shared memory (first MAT threads).
    kb.setp(pr, CmpOp.LT, kb.tid, MAT)
    kb.mul(addr, kb.tid, 4)
    kb.ld(dv, kb.param(0), index=addr, pred=pr)
    kb.st(0, dv, index=addr, space=MemSpace.SHARED, pred=pr)
    kb.ld(ev, kb.param(1), index=addr, pred=pr)
    kb.st(MAT * 4, ev, index=addr, space=MemSpace.SHARED, pred=pr)
    kb.bar()
    # Each thread processes TWO eigenvalue intervals in sequence, as the
    # SDK kernel does when intervals outnumber threads.  Threads whose
    # first interval converges early loop back and start the second
    # while neighbours still bisect the first — the staggered in-loop
    # divergence SBI feeds on.
    (work,) = kb.regs("work")
    kb.mov(work, 0)
    kb.label("interval")
    kb.and_(want, kb.tid, MAT - 1)
    kb.add(want, want, work)
    kb.and_(want, want, MAT - 1)
    # Per-thread interval width => per-thread bisection trip count.
    kb.mov(lo, -radius)
    kb.add(hi, want, 1.0)
    kb.mul(hi, hi, 4.0 * radius / MAT)
    kb.add(hi, hi, lo)
    kb.mov(it, 0)
    kb.label("bisect")
    # while (hi - lo > eps && it < max_iter)
    kb.sub(mid, hi, lo)
    kb.setp(pr, CmpOp.LE, mid, EPS)
    kb.bra("converged", cond=pr)
    kb.setp(pr, CmpOp.GE, it, max_iter)
    kb.bra("converged", cond=pr)
    kb.add(mid, hi, lo)
    kb.mul(mid, mid, 0.5)
    # Sturm count: number of eigenvalues below mid.
    kb.mov(count, 0)
    kb.mov(q, 1.0)
    kb.mov(k, 0)
    kb.label("sturm")
    kb.mul(addr, k, 4)
    kb.ld(dv, 0, index=addr, space=MemSpace.SHARED)
    kb.ld(ev, MAT * 4, index=addr, space=MemSpace.SHARED)
    kb.setp(pr, CmpOp.EQ, q, 0.0)
    kb.bra("q_safe", cond=pr, neg=True)
    kb.mov(q, 1e-10)
    kb.label("q_safe")
    kb.mul(ev, ev, ev)
    kb.div(ev, ev, q)
    kb.sub(q, dv, mid)
    kb.sub(q, q, ev)
    # Data-dependent branch: negative pivot => eigenvalue below mid.
    kb.setp(pr, CmpOp.LT, q, 0.0)
    kb.bra("no_count", cond=pr, neg=True)
    kb.add(count, count, 1)
    kb.label("no_count")
    kb.add(k, k, 1)
    kb.setp(pr, CmpOp.LT, k, MAT)
    kb.bra("sturm", cond=pr)
    # Narrow the interval toward eigenvalue #want — the balanced
    # divergent branch the real kernel takes each bisection step.
    kb.setp(pr, CmpOp.GT, count, want)
    kb.bra("go_low", cond=pr)
    kb.mov(lo, mid)
    kb.add(lo, lo, 0.0)
    kb.bra("narrowed")
    kb.label("go_low")
    kb.mov(hi, mid)
    kb.add(hi, hi, 0.0)
    kb.label("narrowed")
    kb.add(it, it, 1)
    kb.bra("bisect")
    kb.label("converged")
    kb.add(mid, hi, lo)
    kb.mul(mid, mid, 0.5)
    kb.mad(addr, work, n, i)
    kb.mul(addr, addr, 4)
    kb.st(kb.param(2), mid, index=addr)
    kb.add(work, work, 1)
    kb.setp(pr, CmpOp.LT, work, 2)
    kb.bra("interval", cond=pr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_d, a_e, a_out),
        shared_bytes=2 * MAT * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_out, 2 * n)
        # Independent model: the same bisection in numpy.
        def sturm(x):
            count = 0
            q = 1.0
            for kk in range(MAT):
                if q == 0.0:
                    q = 1e-10
                q = (diag[kk] - x) - off[kk] * off[kk] / q
                if q < 0.0:
                    count += 1
            return count

        for t in range(min(n, 32)):  # spot-check a subset (it's O(n*iter*MAT))
            for work in range(2):
                want = ((t % MAT) + work) % MAT
                lo_v = -radius
                hi_v = lo_v + (want + 1.0) * (4.0 * radius / MAT)
                it = 0
                while hi_v - lo_v > EPS and it < max_iter:
                    m = 0.5 * (hi_v + lo_v)
                    if sturm(m) > want:
                        hi_v = m
                    else:
                        lo_v = m
                    it += 1
                np.testing.assert_allclose(
                    got[work * n + t], 0.5 * (hi_v + lo_v), rtol=1e-9
                )

    return common.Instance(
        name="eigenvalues",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, 2 * n)],
        numpy_check=numpy_check,
        size=size,
    )
