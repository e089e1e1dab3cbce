"""BlackScholes (CUDA SDK) — European option pricing.

Straight-line, SFU-heavy floating point per thread (log, sqrt, exp,
reciprocal) with three coalesced loads and two stores.  The cumulative
normal distribution uses a logistic approximation, keeping the
instruction mix (MAD-heavy with SFU bursts) faithful to the original.
Regular: no data-dependent control flow at all.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

PARAMS = {
    "tiny": dict(n=512, iterations=1),
    "bench": dict(n=2048, iterations=3),
    "full": dict(n=8192, iterations=4),
}

RISK_FREE = 0.02
VOLATILITY = 0.30
LN2 = float(np.log(2.0))
LOG2E = float(np.log2(np.e))


def _cnd_numpy(d: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp2(-1.702 * d * LOG2E))


def _reference(s, x, t):
    sqrt_t = np.sqrt(t)
    d1 = (np.log2(s / x) * LN2 + (RISK_FREE + 0.5 * VOLATILITY**2) * t) / (
        VOLATILITY * sqrt_t
    )
    d2 = d1 - VOLATILITY * sqrt_t
    discount = np.exp2(-RISK_FREE * t * LOG2E)
    call = s * _cnd_numpy(d1) - x * discount * _cnd_numpy(d2)
    put = x * discount * (1.0 - _cnd_numpy(d2)) - s * (1.0 - _cnd_numpy(d1))
    return call, put


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    n = PARAMS[size]["n"]
    iterations = PARAMS[size]["iterations"]
    gen = common.rng("blackscholes", size)
    price = gen.uniform(10.0, 100.0, n)
    strike = gen.uniform(10.0, 100.0, n)
    expiry = gen.uniform(0.25, 2.0, n)

    memory = MemoryImage()
    a_price = memory.alloc_array(price)
    a_strike = memory.alloc_array(strike)
    a_expiry = memory.alloc_array(expiry)
    a_call = memory.alloc(n * 4)
    a_put = memory.alloc(n * 4)

    kb = KernelBuilder("blackscholes")
    i, addr, rep, prep = kb.regs("i", "addr", "rep", "prep")
    s, x, t = kb.regs("s", "x", "t")
    sqrt_t, d1, d2, tmp, cnd1, cnd2, disc, call, put = kb.regs(
        "sqrt_t", "d1", "d2", "tmp", "cnd1", "cnd2", "disc", "call", "put"
    )
    common.emit_global_tid(kb, i)
    common.emit_byte_index(kb, addr, i)
    # The SDK kernel reprices NUM_ITERATIONS times; this is the knob
    # that keeps it compute-bound (regular) as in the paper.
    kb.mov(rep, 0)
    kb.label("repeat")
    kb.ld(s, kb.param(0), index=addr)
    kb.ld(x, kb.param(1), index=addr)
    kb.ld(t, kb.param(2), index=addr)
    kb.sqrt(sqrt_t, t)
    # d1 = (ln(S/X) + (r + v^2/2) t) / (v sqrt(t))
    kb.div(d1, s, x)
    kb.lg2(d1, d1)
    kb.mul(d1, d1, LN2)
    kb.mad(d1, t, RISK_FREE + 0.5 * VOLATILITY**2, d1)
    kb.mul(tmp, sqrt_t, VOLATILITY)
    kb.div(d1, d1, tmp)
    kb.sub(d2, d1, tmp)
    # CND via logistic: 1 / (1 + 2^(-1.702 * d * log2 e))
    for dst, src in ((cnd1, d1), (cnd2, d2)):
        kb.mul(dst, src, -1.702 * LOG2E)
        kb.ex2(dst, dst)
        kb.add(dst, dst, 1.0)
        kb.rcp(dst, dst)
    kb.mul(disc, t, -RISK_FREE * LOG2E)
    kb.ex2(disc, disc)
    # call = S*CND(d1) - X*disc*CND(d2)
    kb.mul(call, s, cnd1)
    kb.mul(tmp, x, disc)
    kb.mul(tmp, tmp, cnd2)
    kb.sub(call, call, tmp)
    # put = X*disc*(1-CND(d2)) - S*(1-CND(d1))
    kb.sub(put, 1.0, cnd2)
    kb.mul(tmp, x, disc)
    kb.mul(put, put, tmp)
    kb.sub(tmp, 1.0, cnd1)
    kb.mul(tmp, s, tmp)
    kb.sub(put, put, tmp)
    kb.st(kb.param(3), call, index=addr)
    kb.st(kb.param(4), put, index=addr)
    kb.add(rep, rep, 1)
    kb.setp(prep, CmpOp.LT, rep, iterations)
    kb.bra("repeat", cond=prep)
    kb.exit_()

    kernel = kb.build(
        cta_size=256,
        grid_size=n // 256,
        params=(a_price, a_strike, a_expiry, a_call, a_put),
    )

    def numpy_check(mem: MemoryImage) -> None:
        call, put = _reference(price, strike, expiry)
        np.testing.assert_allclose(mem.read_array(a_call, n), call, rtol=1e-9)
        np.testing.assert_allclose(mem.read_array(a_put, n), put, rtol=1e-9)

    return common.Instance(
        name="blackscholes",
        kernel=kernel,
        memory=memory,
        outputs=[("call", a_call, n), ("put", a_put, n)],
        numpy_check=numpy_check,
        size=size,
    )
