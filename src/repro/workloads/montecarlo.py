"""MonteCarlo (CUDA SDK) — option pricing by simulation.

Each thread draws ``samples`` pseudo-random paths from an in-register
LCG, prices the payoff through an SFU-heavy exp, and accumulates the
mean.  Uniform trip counts and branch-free payoff keep it regular; the
SFU pressure makes it a good demonstrator of SWI's heterogeneous-unit
co-issue (8-wide SFU group running under MAD instructions).
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

LOG2E = float(np.log2(np.e))
SIGMA = 0.3
S0 = 50.0
STRIKE = 52.0

PARAMS = {
    "tiny": dict(n=512, samples=8),
    "bench": dict(n=1024, samples=24),
    "full": dict(n=2048, samples=64),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    n, samples = p["n"], p["samples"]

    memory = MemoryImage()
    a_out = memory.alloc(n * 4)

    kb = KernelBuilder("montecarlo")
    i, addr, state, k, pr = kb.regs("i", "addr", "state", "k", "pr")
    z, u, pay, acc, tmp = kb.regs("z", "u", "pay", "acc", "tmp")
    common.emit_global_tid(kb, i)
    kb.mad(state, i, 2654435761 % common.LCG_MASK, 12345)
    kb.and_(state, state, common.LCG_MASK)
    kb.mov(acc, 0.0)
    kb.mov(k, 0)
    kb.label("sample")
    # Approximate gaussian: sum of 4 uniforms, centred (CLT).
    kb.mov(z, -2.0)
    for _ in range(4):
        common.emit_lcg(kb, state)
        kb.mul(u, state, 1.0 / (common.LCG_MASK + 1))
        kb.add(z, z, u)
    # payoff = max(S0 * exp(sigma * z) - K, 0)
    kb.mul(tmp, z, SIGMA * LOG2E)
    kb.ex2(tmp, tmp)
    kb.mad(pay, tmp, S0, -STRIKE)
    kb.max_(pay, pay, 0.0)
    kb.add(acc, acc, pay)
    kb.add(k, k, 1)
    kb.setp(pr, CmpOp.LT, k, samples)
    kb.bra("sample", cond=pr)
    kb.mul(acc, acc, 1.0 / samples)
    common.emit_byte_index(kb, addr, i)
    kb.st(kb.param(0), acc, index=addr)
    kb.exit_()

    kernel = kb.build(cta_size=256, grid_size=n // 256, params=(a_out,))

    def numpy_check(mem: MemoryImage) -> None:
        idx = np.arange(n, dtype=np.int64)
        state = (idx * (2654435761 % common.LCG_MASK) + 12345) & common.LCG_MASK
        acc = np.zeros(n)
        for _ in range(samples):
            z = np.full(n, -2.0)
            for _ in range(4):
                state = common.lcg_next(state)
                z = z + state / (common.LCG_MASK + 1)
            pay = np.maximum(np.exp2(z * SIGMA * LOG2E) * S0 - STRIKE, 0.0)
            acc += pay
        np.testing.assert_allclose(
            mem.read_array(a_out, n), acc / samples, rtol=1e-9
        )

    return common.Instance(
        name="montecarlo",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, n)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
