"""BinomialOptions (CUDA SDK) — binomial option valuation.

Per-thread backward induction over a uniform step count: a pure
compute loop of multiply-adds with an SFU burst setting up the up/down
factors, and a branch-free ``max`` for the early-exercise payoff.
Regular: every thread runs the same trip count.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

LOG2E = float(np.log2(np.e))
VOL = 0.25
RATE = 0.02
DT = 1.0 / 16.0

PARAMS = {
    "tiny": dict(n=512, steps=8),
    "bench": dict(n=1024, steps=24),
    "full": dict(n=4096, steps=48),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    n, steps = p["n"], p["steps"]
    gen = common.rng("binomialoptions", size)
    price = gen.uniform(20.0, 80.0, n)
    strike = gen.uniform(20.0, 80.0, n)

    memory = MemoryImage()
    a_s = memory.alloc_array(price)
    a_x = memory.alloc_array(strike)
    a_out = memory.alloc(n * 4)

    kb = KernelBuilder("binomialoptions")
    i, addr, s, x, t, pr = kb.regs("i", "addr", "s", "x", "t", "pr")
    u, d, pu, val, hold, tmp = kb.regs("u", "d", "pu", "val", "hold", "tmp")
    common.emit_global_tid(kb, i)
    common.emit_byte_index(kb, addr, i)
    kb.ld(s, kb.param(0), index=addr)
    kb.ld(x, kb.param(1), index=addr)
    # u = exp(vol * sqrt(dt)); d = 1/u; pu = (exp(r dt) - d) / (u - d).
    kb.mov(u, VOL * np.sqrt(DT) * LOG2E)
    kb.ex2(u, u)
    kb.rcp(d, u)
    kb.mov(pu, RATE * DT * LOG2E)
    kb.ex2(pu, pu)
    kb.sub(pu, pu, d)
    kb.sub(tmp, u, d)
    kb.div(pu, pu, tmp)
    # Backward induction approximated as a per-thread lattice walk:
    # val <- disc * (pu * val_up + (1-pu) * val), payoff floor each step.
    kb.sub(val, s, x)
    kb.max_(val, val, 0.0)
    kb.mov(t, 0)
    kb.label("step")
    kb.mul(hold, s, u)
    kb.sub(hold, hold, x)
    kb.max_(hold, hold, 0.0)
    kb.mul(hold, hold, pu)
    kb.sub(tmp, 1.0, pu)
    kb.mad(val, val, tmp, hold)
    kb.mul(s, s, d)
    kb.add(t, t, 1)
    kb.setp(pr, CmpOp.LT, t, steps)
    kb.bra("step", cond=pr)
    kb.st(kb.param(2), val, index=addr)
    kb.exit_()

    kernel = kb.build(cta_size=256, grid_size=n // 256, params=(a_s, a_x, a_out))

    def numpy_check(mem: MemoryImage) -> None:
        u = np.exp2(VOL * np.sqrt(DT) * LOG2E)
        d = 1.0 / u
        pu = (np.exp2(RATE * DT * LOG2E) - d) / (u - d)
        s = price.copy()
        val = np.maximum(s - strike, 0.0)
        for _ in range(steps):
            hold = np.maximum(s * u - strike, 0.0) * pu
            val = val * (1.0 - pu) + hold
            s = s * d
        np.testing.assert_allclose(mem.read_array(a_out, n), val, rtol=1e-9)

    return common.Instance(
        name="binomialoptions",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, n)],
        numpy_check=numpy_check,
        size=size,
    )
