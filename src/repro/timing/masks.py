"""Bit-mask helpers.

Activity masks are Python integers with one bit per thread of a warp
(bit ``i`` = thread ``i`` in *thread* space).  Lane-space masks are the
same integers after the per-warp lane-shuffle permutation
(:mod:`repro.timing.lanes`).  Warp widths up to 64 keep these in a
single machine word.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

#: Interning caps: conversion memos are cleared (not disabled) past
#: this many entries, bounding memory on adversarial mask streams.
_MEMO_LIMIT = 1 << 16


def full_mask(width: int) -> int:
    """Mask with the low ``width`` bits set."""
    return (1 << width) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Interned ``mask -> bool[width]`` expansions, one table per warp
#: width (:func:`bools_table`).  The arrays are shared across every
#: call site, so they are marked read-only; identity of the full-warp
#: array doubles as an "all active" test in the compiled executor.
_BOOLS_TABLES: Dict[int, Dict[int, np.ndarray]] = {}


def bools_table(width: int) -> Dict[int, np.ndarray]:
    """The interned ``mask -> bool[width]`` rows of one warp width.

    A hot path binds it once and looks a mask up with one int-keyed
    ``get`` (an int hashes to itself); a miss goes through
    :func:`mask_to_bools`, the table's one writer.  The table is only
    ever cleared in place, so a bound reference stays the table.
    """
    table = _BOOLS_TABLES.get(width)
    if table is None:
        table = _BOOLS_TABLES[width] = {}
    return table


def mask_to_bools(mask: int, width: int) -> np.ndarray:
    """Expand to a ``bool[width]`` numpy array (thread order).

    Results are interned in :func:`bools_table` and read-only: the hot
    path converts the same few masks over and over, so the expansion
    loop runs once per distinct mask instead of once per issue.
    """
    table = bools_table(width)
    out = table.get(mask)
    if out is None:
        if len(table) >= _MEMO_LIMIT:
            table.clear()
        out = np.zeros(width, dtype=bool)
        for i in bits(mask):
            out[i] = True
        out.setflags(write=False)
        table[mask] = out
    return out


#: Interned ``flatnonzero`` results keyed by the identity of an
#: interned (read-only) bool array; holding the array in the value
#: keeps its ``id`` stable for the lifetime of the entry.  Writable
#: arrays (fresh predicated masks) are never memoized.
_INDICES_MEMO: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def bools_to_indices(active: np.ndarray) -> np.ndarray:
    """Indices of the True lanes (ascending), as an index array.

    Index-array gathers/scatters are ~2x cheaper than boolean fancy
    indexing at warp sizes, and for the interned masks from
    :func:`mask_to_bools` the ``flatnonzero`` runs once per distinct
    mask instead of once per issue.
    """
    # Identity-keyed on purpose: only read-only *interned* arrays are
    # stored, the hit path re-checks `is`, and the memo never leaves
    # this process — addresses cannot reach any simulated state.
    key = id(active)
    hit = _INDICES_MEMO.get(key)
    if hit is not None and hit[0] is active:
        return hit[1]
    idx = np.flatnonzero(active)
    if not active.flags.writeable:
        if len(_INDICES_MEMO) >= _MEMO_LIMIT:
            _INDICES_MEMO.clear()
        idx.setflags(write=False)
        _INDICES_MEMO[key] = (active, idx)
    return idx


#: Interned ``bool[width]`` bytes -> mask packings: branch outcomes
#: and predicates repeat the same few patterns.
_PACK_MEMO: Dict[bytes, int] = {}


def bools_to_mask(values: Sequence[bool]) -> int:
    key = np.asarray(values, dtype=bool).tobytes()
    mask = _PACK_MEMO.get(key)
    if mask is None:
        if len(_PACK_MEMO) >= _MEMO_LIMIT:
            _PACK_MEMO.clear()
        packed = np.packbits(np.frombuffer(key, dtype=bool), bitorder="little")
        mask = _PACK_MEMO[key] = int.from_bytes(packed.tobytes(), "little")
    return mask


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Map thread-space bits through ``perm`` (thread -> lane)."""
    if mask == (1 << len(perm)) - 1:
        return mask  # a full warp fills every lane under any shuffle
    out = 0
    while mask:  # :func:`bits`, without a generator frame per bit
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


#: Memoized wave counts (two lookups per issued instruction).
_WAVES_MEMO: Dict[Tuple[int, int, int], int] = {}


def wave_count(lane_mask: int, group_width: int, warp_width: int) -> int:
    """Pipeline waves a lane mask occupies on a ``group_width``-wide unit.

    Lanes stream through the unit in chunks of ``group_width``
    consecutive lane positions; chunks with no active lane are skipped.
    An empty mask still costs one wave (the instruction occupies the
    issue port).
    """
    if group_width >= warp_width:
        return 1
    key = (lane_mask, group_width, warp_width)
    waves = _WAVES_MEMO.get(key)
    if waves is None:
        if len(_WAVES_MEMO) >= _MEMO_LIMIT:
            _WAVES_MEMO.clear()
        chunk_mask = full_mask(group_width)
        waves = 0
        for base in range(0, warp_width, group_width):
            if (lane_mask >> base) & chunk_mask:
                waves += 1
        waves = max(waves, 1)
        _WAVES_MEMO[key] = waves
    return waves


def mask_str(mask: int, width: int) -> str:
    """Visual mask, thread 0 leftmost: ``'X..X'``."""
    return "".join("X" if mask & (1 << i) else "." for i in range(width))

