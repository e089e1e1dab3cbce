"""3DFD (CUDA SDK) — finite-difference stencil, z-sweep formulation.

Each thread owns one column point and applies a 4th-order symmetric
stencil along a flattened axis, iterating ``zsteps`` times with the
accumulator folded back (the register-pipeline structure of the
original's z-loop).  Index clamping is branch-free (min/max), so the
kernel is fully regular; repeated sweeps keep the plane L1-resident.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

COEFFS = (0.5, 0.25, 0.125, 0.0625)

PARAMS = {
    "tiny": dict(n=512, zsteps=2),
    "bench": dict(n=1024, zsteps=4),
    "full": dict(n=4096, zsteps=6),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    n, zsteps = p["n"], p["zsteps"]
    gen = common.rng("3dfd", size)
    field = gen.uniform(-1.0, 1.0, n)

    memory = MemoryImage()
    a_in = memory.alloc_array(field)
    a_out = memory.alloc(n * 4)

    kb = KernelBuilder("3dfd")
    i, z, pr, acc, idx, addr, v, tmp = kb.regs(
        "i", "z", "pr", "acc", "idx", "addr", "v", "tmp"
    )
    common.emit_global_tid(kb, i)
    kb.mov(acc, 0.0)
    kb.mov(z, 0)
    kb.label("zloop")
    kb.mul(acc, acc, 0.5)  # fold previous plane (register pipeline)
    for k, coeff in enumerate(COEFFS):
        offsets = (0,) if k == 0 else (-k, k)
        for off in offsets:
            kb.add(idx, i, off)
            kb.max_(idx, idx, 0)
            kb.min_(idx, idx, n - 1)
            kb.mul(addr, idx, 4)
            kb.ld(v, kb.param(0), index=addr)
            kb.mad(acc, v, coeff, acc)
    kb.add(z, z, 1)
    kb.setp(pr, CmpOp.LT, z, zsteps)
    kb.bra("zloop", cond=pr)
    kb.mul(addr, i, 4)
    kb.st(kb.param(1), acc, index=addr)
    kb.exit_()

    kernel = kb.build(cta_size=256, grid_size=n // 256, params=(a_in, a_out))

    def numpy_check(mem: MemoryImage) -> None:
        acc = np.zeros(n)
        idx = np.arange(n)
        for _ in range(zsteps):
            acc = acc * 0.5
            for k, coeff in enumerate(COEFFS):
                offsets = (0,) if k == 0 else (-k, k)
                for off in offsets:
                    j = np.clip(idx + off, 0, n - 1)
                    acc = acc + field[j] * coeff
        np.testing.assert_allclose(mem.read_array(a_out, n), acc, rtol=1e-9)

    return common.Instance(
        name="3dfd",
        kernel=kernel,
        memory=memory,
        outputs=[("out", a_out, n)],
        numpy_check=numpy_check,
        size=size,
    )
