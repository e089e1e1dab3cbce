"""BFS (Rodinia) — level-synchronous breadth-first search.

Each thread owns one node of a CTA-local CSR subgraph (the Rodinia
kernel-per-level host loop becomes an in-kernel level loop with CTA
barriers; edges stay within the CTA's partition so the barrier is a
correct synchronisation scope).  The per-node neighbour loop has a
data-dependent trip count drawn from a skewed degree distribution, and
frontier membership is data-dependent — the canonical irregular
workload of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.functional.memory import MemoryImage
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import CmpOp
from repro.workloads import common

CTA = 256

PARAMS = {
    "tiny": dict(ctas=1, levels=4, max_degree=8),
    "bench": dict(ctas=4, levels=6, max_degree=12),
    "full": dict(ctas=8, levels=8, max_degree=16),
}


def _make_graph(gen: np.random.Generator, n: int, max_degree: int):
    """Skewed-degree random graph with locality (edges within the
    partition, targets near the source so neighbour loads coalesce —
    otherwise the single LSU port hides all front-end effects)."""
    degrees = np.minimum(
        gen.zipf(1.6, n).astype(np.int64), max_degree
    )  # heavy-tailed degrees: a few hubs, many leaves
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    m = int(row_ptr[-1])
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = (src + gen.integers(1, 48, m)) % n
    return row_ptr, cols


def build(size: str = "bench") -> common.Instance:
    common.check_size(size)
    p = PARAMS[size]
    ctas, levels, max_degree = p["ctas"], p["levels"], p["max_degree"]
    n = CTA * ctas
    gen = common.rng("bfs", size)

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    cols_all = []
    # Per-CTA partitions: node ids are CTA-local in the column array.
    for c in range(ctas):
        rp, cl = _make_graph(gen, CTA, max_degree)
        row_ptr[c * CTA + 1 : (c + 1) * CTA + 1] = rp[1:] + row_ptr[c * CTA]
        cols_all.append(cl + c * CTA)
    cols = np.concatenate(cols_all) if cols_all else np.zeros(0, dtype=np.int64)

    dist = np.full(n, -1.0)
    cur = np.zeros(n)
    for c in range(ctas):
        dist[c * CTA] = 0.0
        cur[c * CTA] = 1.0

    memory = MemoryImage()
    a_rp = memory.alloc_array(row_ptr)
    a_cols = memory.alloc_array(cols if cols.size else np.zeros(1))
    a_dist = memory.alloc_array(dist)
    a_cur = memory.alloc_array(cur)
    a_next = memory.alloc_array(np.zeros(n))

    kb = KernelBuilder("bfs")
    node, addr, lvl, pr, inf = kb.regs("node", "addr", "lvl", "pr", "inf")
    e, eend, v, d, tmp, one = kb.regs("e", "eend", "v", "d", "tmp", "one")
    common.emit_global_tid(kb, node)
    kb.mov(one, 1.0)
    kb.mov(lvl, 0)
    kb.label("level")
    # Frontier membership test.
    kb.mul(addr, node, 4)
    kb.ld(inf, kb.param(3), index=addr)
    kb.setp(pr, CmpOp.EQ, inf, 0)
    kb.bra("skip_expand", cond=pr)
    # Expand: for e in row_ptr[node] .. row_ptr[node+1].
    kb.ld(e, kb.param(0), index=addr)
    kb.ld(eend, kb.param(0), index=addr, offset=4)
    kb.label("edge")
    kb.setp(pr, CmpOp.GE, e, eend)
    kb.bra("edges_done", cond=pr)
    kb.mul(tmp, e, 4)
    kb.ld(v, kb.param(1), index=tmp)
    kb.mul(tmp, v, 4)
    kb.ld(d, kb.param(2), index=tmp)
    kb.setp(pr, CmpOp.GE, d, 0)
    kb.bra("visited", cond=pr)
    kb.add(d, lvl, 1)
    kb.st(kb.param(2), d, index=tmp)
    kb.st(kb.param(4), one, index=tmp)
    kb.label("visited")
    kb.add(e, e, 1)
    kb.bra("edge")
    kb.label("edges_done")
    kb.label("skip_expand")
    kb.bar()
    # Frontier swap: cur <- next, next <- 0.
    kb.mul(addr, node, 4)
    kb.ld(tmp, kb.param(4), index=addr)
    kb.st(kb.param(3), tmp, index=addr)
    kb.st(kb.param(4), 0.0, index=addr)
    kb.bar()
    kb.add(lvl, lvl, 1)
    kb.setp(pr, CmpOp.LT, lvl, levels)
    kb.bra("level", cond=pr)
    kb.exit_()

    kernel = kb.build(
        cta_size=CTA,
        grid_size=ctas,
        params=(a_rp, a_cols, a_dist, a_cur, a_next),
    )

    def numpy_check(mem: MemoryImage) -> None:
        expect = np.full(n, -1.0)
        for c in range(ctas):
            expect[c * CTA] = 0.0
        frontier = [c * CTA for c in range(ctas)]
        for lvl in range(levels):
            nxt = []
            for u in frontier:
                for e in range(int(row_ptr[u]), int(row_ptr[u + 1])):
                    v = int(cols[e])
                    if expect[v] < 0:
                        expect[v] = lvl + 1
                        nxt.append(v)
            frontier = nxt
        np.testing.assert_array_equal(mem.read_array(a_dist, n), expect)

    return common.Instance(
        name="bfs",
        kernel=kernel,
        memory=memory,
        outputs=[("dist", a_dist, n)],
        numpy_check=numpy_check,
        size=size,
    )
