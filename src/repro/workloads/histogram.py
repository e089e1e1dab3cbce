"""Histogram (CUDA SDK histogram64) — shared-memory atomic histogram.

As in the SDK kernel, each thread loads packed 32-bit words and
extracts four byte-sized samples per word (shift/mask arithmetic
between the atomics), scattering data-dependent atomic increments into
a CTA-local shared histogram; conflicting bins serialise in the LSU.
Per-CTA results then merge into the global histogram with global
atomics.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace
from repro.workloads import common

BINS = 64
CTA = 256

PARAMS = {
    "tiny": dict(ctas=1, words=2),
    "bench": dict(ctas=4, words=4),
    "full": dict(ctas=8, words=8),
}


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, words = p["ctas"], p["words"]
    n_words = CTA * ctas * words
    gen = common.rng("histogram", size)
    # Mildly skewed samples: mostly uniform with a hot-bin minority.
    samples = gen.integers(0, BINS, 4 * n_words)
    hot = gen.uniform(0, 1, 4 * n_words) < 0.2
    samples[hot] = gen.integers(0, 4, int(hot.sum()))
    samples = samples.astype(np.int64)
    packed = (
        samples[0::4]
        + samples[1::4] * 256
        + samples[2::4] * 65536
        + samples[3::4] * 16777216
    ).astype(np.float64)

    memory = MemoryImage()
    a_data = memory.alloc_array(packed)
    a_hist = memory.alloc_array(np.zeros(BINS))

    kb = KernelBuilder("histogram")
    i, k, pr, addr, w, b, v = kb.regs("i", "k", "pr", "addr", "w", "b", "v")
    # Zero the shared histogram (first BINS threads).
    kb.setp(pr, CmpOp.LT, kb.tid, BINS)
    kb.mul(addr, kb.tid, 4)
    kb.st(0, 0.0, index=addr, space=MemSpace.SHARED, pred=pr)
    kb.bar()
    common.emit_global_tid(kb, i)
    kb.mov(k, 0)
    kb.label("word")
    # Strided packed-word load, then four byte extractions + atomics.
    kb.mad(addr, k, CTA * ctas, i)
    kb.mul(addr, addr, 4)
    kb.ld(w, kb.param(0), index=addr)
    for byte in range(4):
        kb.shr(b, w, 8 * byte)
        kb.and_(b, b, 0xFF)
        kb.mul(b, b, 4)
        kb.atom_add(None, 0, 1.0, index=b, space=MemSpace.SHARED)
    kb.add(k, k, 1)
    kb.setp(pr, CmpOp.LT, k, words)
    kb.bra("word", cond=pr)
    kb.bar()
    # Merge into the global histogram.
    kb.setp(pr, CmpOp.LT, kb.tid, BINS)
    kb.bra("done", cond=pr, neg=True)
    kb.mul(addr, kb.tid, 4)
    kb.ld(v, 0, index=addr, space=MemSpace.SHARED)
    kb.atom_add(None, kb.param(1), v, index=addr)
    kb.label("done")
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_data, a_hist),
        shared_bytes=BINS * 4,
    )

    def numpy_check(mem: MemoryImage) -> None:
        expect = np.bincount(samples, minlength=BINS).astype(np.float64)
        np.testing.assert_array_equal(mem.read_array(a_hist, BINS), expect)

    return common.Instance(
        name="histogram",
        kernel=kernel,
        memory=memory,
        outputs=[("hist", a_hist, BINS)],
        numpy_check=numpy_check,
        rebuild=lambda: build(size),
    )
