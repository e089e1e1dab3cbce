"""Needleman-Wunsch (Rodinia) — sequence-alignment wavefront DP.

The (n+1)x(n+1) score matrix fills along anti-diagonals: on diagonal
``d`` only threads whose row index lies on the wavefront compute a
cell, so the active mask grows then shrinks — systematic intra-warp
imbalance separated by barriers, the paper's +7.7% lane-shuffling
showcase.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

SEQ = 32           # sequence length; matrix is (SEQ+1)^2
CTA = 64           # thread r computes row r+1 of the wavefront
GAP = 1.0

PARAMS = {
    "tiny": dict(ctas=1),
    "bench": dict(ctas=8),
    "full": dict(ctas=16),
}

MATDIM = SEQ + 1
CELLS = MATDIM * MATDIM


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    ctas = PARAMS[size]["ctas"]
    gen = common.rng("needleman_wunsch", size)
    # Random +1/-1 substitution scores per CTA (as Rodinia's reference
    # similarity matrix, flattened).
    scores = gen.integers(0, 2, (ctas, SEQ, SEQ)).astype(np.float64) * 2.0 - 1.0

    memory = MemoryImage()
    a_scores = memory.alloc_array(scores.ravel())
    a_out = memory.alloc(CELLS * ctas * 4)

    kb = KernelBuilder("needleman_wunsch")
    r, d, pr, act, addr, base, tmp = kb.regs("r", "d", "pr", "act", "addr", "base", "tmp")
    cc, up, left, diag, sc, best = kb.regs("cc", "up", "left", "diag", "sc", "best")
    kb.add(r, kb.tid, 1)  # thread t owns matrix row t+1
    kb.mul(base, kb.ctaid, SEQ * SEQ)
    # Initialise borders in shared: m[0][j] = -j, m[i][0] = -i.
    kb.setp(act, CmpOp.LE, kb.tid, SEQ)
    kb.neg(tmp, kb.tid)
    kb.mul(addr, kb.tid, 4)
    kb.st(0, tmp, index=addr, space=MemSpace.SHARED, pred=act)  # row 0
    kb.mul(addr, kb.tid, MATDIM * 4)
    kb.st(0, tmp, index=addr, space=MemSpace.SHARED, pred=act)  # column 0
    kb.bar()
    kb.mov(d, 2)
    kb.label("diag")
    # Thread computes cell (r, c = d - r) when 1 <= c <= SEQ.
    kb.sub(cc, d, r)
    kb.setp(act, CmpOp.GE, cc, 1)
    kb.setp(pr, CmpOp.LE, cc, SEQ)
    kb.and_(act, act, pr)
    kb.setp(pr, CmpOp.LE, r, SEQ)
    kb.and_(act, act, pr)
    kb.bra("no_cell", cond=act, neg=True)
    # m[r][c] = max(m[r-1][c-1] + s, m[r-1][c] - gap, m[r][c-1] - gap)
    kb.sub(addr, r, 1)
    kb.mul(addr, addr, MATDIM)
    kb.add(addr, addr, cc)
    kb.mul(addr, addr, 4)
    kb.ld(up, 0, index=addr, space=MemSpace.SHARED)          # m[r-1][c]
    kb.ld(diag, 0, index=addr, offset=-4, space=MemSpace.SHARED)  # m[r-1][c-1]
    kb.mad(addr, r, MATDIM, cc)
    kb.mul(addr, addr, 4)
    kb.ld(left, 0, index=addr, offset=-4, space=MemSpace.SHARED)  # m[r][c-1]
    # Substitution score s[r-1][c-1] from this CTA's score block.
    kb.sub(addr, r, 1)
    kb.mul(addr, addr, SEQ)
    kb.add(addr, addr, cc)
    kb.sub(addr, addr, 1)
    kb.add(addr, addr, base)
    kb.mul(addr, addr, 4)
    kb.ld(sc, kb.param(0), index=addr)
    kb.add(best, diag, sc)
    kb.sub(up, up, GAP)
    kb.max_(best, best, up)
    kb.sub(left, left, GAP)
    kb.max_(best, best, left)
    kb.mad(addr, r, MATDIM, cc)
    kb.mul(addr, addr, 4)
    kb.st(0, best, index=addr, space=MemSpace.SHARED)
    kb.label("no_cell")
    kb.bar()
    kb.add(d, d, 1)
    kb.setp(pr, CmpOp.LE, d, 2 * SEQ)
    kb.bra("diag", cond=pr)
    # Write the matrix out (each thread handles a strided slice).
    kb.mov(d, kb.tid)
    kb.label("copy")
    kb.mul(addr, d, 4)
    kb.ld(tmp, 0, index=addr, space=MemSpace.SHARED)
    kb.mul(pr, kb.ctaid, CELLS)
    kb.add(pr, pr, d)
    kb.mul(pr, pr, 4)
    kb.st(kb.param(1), tmp, index=pr)
    kb.add(d, d, CTA)
    kb.setp(pr, CmpOp.LT, d, CELLS)
    kb.bra("copy", cond=pr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_scores, a_out),
        shared_bytes=CELLS * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        got = mem.read_array(a_out, CELLS * ctas)
        for b in range(ctas):
            m = np.zeros((MATDIM, MATDIM))
            m[0, :] = -np.arange(MATDIM)
            m[:, 0] = -np.arange(MATDIM)
            s = scores[b]
            for rr in range(1, MATDIM):
                for cc_ in range(1, MATDIM):
                    m[rr, cc_] = max(
                        m[rr - 1, cc_ - 1] + s[rr - 1, cc_ - 1],
                        m[rr - 1, cc_] - GAP,
                        m[rr, cc_ - 1] - GAP,
                    )
            np.testing.assert_allclose(
                got[b * CELLS : (b + 1) * CELLS].reshape(MATDIM, MATDIM), m, rtol=1e-9
            )

    return common.Instance(
        name="needleman_wunsch",
        kernel=kernel,
        memory=memory,
        outputs=[("matrix", a_out, CELLS * ctas)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
