"""Backprop (Rodinia) — neural-network layer forward pass.

Each thread evaluates one output neuron: the input activations are
staged in shared memory by the first ``IN`` threads of the CTA
(briefly predicated — the only non-uniformity), then every thread runs
a fully unrolled weighted sum and a logistic activation.  Several
epochs reuse the same weights, keeping them L1-resident.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

IN = 16
LOG2E = float(np.log2(np.e))

PARAMS = {
    "tiny": dict(n=256, epochs=2),
    "bench": dict(n=512, epochs=5),   # weights stay L1-resident
    "full": dict(n=2048, epochs=5),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    n, epochs = p["n"], p["epochs"]
    gen = common.rng("backprop", size)
    weights = gen.uniform(-0.5, 0.5, (IN, n))  # w[k*n + j], coalesced over j
    inputs = gen.uniform(0.0, 1.0, IN)

    memory = MemoryImage()
    a_w = memory.alloc_array(weights.ravel())
    a_x = memory.alloc_array(inputs)
    a_out = memory.alloc(n * 4)

    kb = KernelBuilder("backprop")
    j, e, pr, acc, addr, v, x = kb.regs("j", "e", "pr", "acc", "addr", "v", "x")
    common.emit_global_tid(kb, j)
    # First IN threads stage the activations into shared memory.
    kb.setp(pr, CmpOp.LT, kb.tid, IN)
    kb.mul(addr, kb.tid, 4)
    kb.ld(x, kb.param(1), index=addr, pred=pr)
    kb.st(0, x, index=addr, space=MemSpace.SHARED, pred=pr)
    kb.bar()
    kb.mov(e, 0)
    kb.mul(addr, j, 4)  # byte offset of column j, row offsets are static
    kb.label("epoch")
    kb.mov(acc, 0.0)
    for k in range(IN):
        kb.ld(v, kb.param(0), index=addr, offset=k * n * 4)
        kb.ld(x, 0, offset=k * 4, space=MemSpace.SHARED)
        kb.mad(acc, v, x, acc)
    kb.add(e, e, 1)
    kb.setp(pr, CmpOp.LT, e, epochs)
    kb.bra("epoch", cond=pr)
    # Logistic activation: 1 / (1 + 2^(-acc * log2 e)).
    kb.mul(acc, acc, -LOG2E)
    kb.ex2(acc, acc)
    kb.add(acc, acc, 1.0)
    kb.rcp(acc, acc)
    kb.mul(addr, j, 4)
    kb.st(kb.param(2), acc, index=addr)
    kb.exit_()

    kernel = kb.build(
        cta_size=256,
        grid_size=n // 256,
        params=(a_w, a_x, a_out),
        shared_bytes=IN * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        acc = inputs @ weights
        out = 1.0 / (1.0 + np.exp2(-acc * LOG2E))
        np.testing.assert_allclose(mem.read_array(a_out, n), out, rtol=1e-9)

    return common.Instance(
        name="backprop",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, n)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
