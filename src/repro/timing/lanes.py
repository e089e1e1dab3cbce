"""Lane shuffling — static thread-to-lane permutations (paper Table 1).

Many kernels give thread 0 of every warp more work than its neighbours;
with the straightforward mapping those threads contend for the same
physical lane, defeating SWI's lane-filling.  Shuffling the
thread-to-lane mapping per warp decorrelates the patterns.  The mapping
is static (computed from ``tid`` and ``wid`` only), so it costs no
hardware and no data movement, and coalescing — which works on thread
ids — is unaffected.

Functions (``n = warp_width - 1``, ``m = warp_count``):

=============  ===================================================
``identity``   ``tid``
``mirror_odd`` ``n - tid`` if ``wid`` odd else ``tid``
``mirror_half````n - tid`` if ``wid > m/2`` else ``tid``
``xor``        ``tid XOR (wid mod warp_width)``
``xor_rev``    ``tid XOR bitrev(wid)`` (bit-reversal over log2(width))
=============  ===================================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

POLICIES = ("identity", "mirror_odd", "mirror_half", "xor", "xor_rev")


def bitrev(value: int, bit_count: int) -> int:
    """Reverse the low ``bit_count`` bits of ``value``."""
    out = 0
    for i in range(bit_count):
        if value & (1 << i):
            out |= 1 << (bit_count - 1 - i)
    return out


def lane_of(policy: str, tid: int, wid: int, warp_width: int, warp_count: int) -> int:
    """Physical lane of thread ``tid`` in warp ``wid``."""
    n = warp_width - 1
    if policy == "identity":
        return tid
    if policy == "mirror_odd":
        return n - tid if wid % 2 == 1 else tid
    if policy == "mirror_half":
        return n - tid if wid > warp_count // 2 else tid
    if policy == "xor":
        return tid ^ (wid % warp_width)
    if policy == "xor_rev":
        bits = warp_width.bit_length() - 1
        return tid ^ bitrev(wid % warp_width, bits)
    raise ValueError("unknown lane shuffle policy %r" % policy)


@lru_cache(maxsize=None)
def identity(warp_width: int) -> Tuple[int, ...]:
    """The identity permutation of one warp width."""
    return tuple(range(warp_width))


@lru_cache(maxsize=1024)
def permutation(policy: str, wid: int, warp_width: int, warp_count: int) -> Tuple[int, ...]:
    """Thread->lane permutation for one warp (validated bijection).

    A pure function of four small values that every warp launch asks
    for, so the answers are kept."""
    perm = tuple(
        lane_of(policy, tid, wid, warp_width, warp_count) for tid in range(warp_width)
    )
    if sorted(perm) != list(range(warp_width)):
        raise ValueError(
            "policy %r is not a permutation for wid=%d width=%d"
            % (policy, wid, warp_width)
        )
    return perm


def diagram(policy: str, warp_width: int = 4, warp_count: int = 4) -> str:
    """ASCII rendition of the Table 1 illustrations: lane id as a
    function of ``warp_width * wid + tid``."""
    rows = []
    for lane in reversed(range(warp_width)):
        cells = []
        for wid in range(warp_count):
            for tid in range(warp_width):
                hit = lane_of(policy, tid, wid, warp_width, warp_count) == lane
                cells.append("*" if hit else ".")
        rows.append("lane %d |%s|" % (lane, "".join(cells)))
    return "\n".join(rows)
