"""L1 data cache model — 48 KB, 6-way, 128 B blocks, LRU (Table 2) —
on the one LRU tag store it shares with every L2 slice.

Write-through, no write-allocate (Fermi-style for global stores): loads
allocate on miss; a store never consults this cache — the load/store
unit posts its segments to its memory sink and that is all, so it
allocates no line and moves no LRU position, and since lines hold no
data a present line needs no update.  Each line records the cycle its
fill completes, so a hit under a pending fill waits for the data rather
than the tag.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class SetAssocCache:
    """Set-associative LRU tag store: set selection, recency, victim
    and geometry; a subclass keeps only its line payload.

    A line is ``[last_use, payload]``.  ``interleave`` is the number of
    address-interleaved slices: an L2 slice only ever sees every
    ``interleave``-th line, so set selection strips those bits.
    """

    __slots__ = (
        "size",
        "ways",
        "block",
        "interleave",
        "n_sets",
        "_stride",
        "_sets",
        "_use_counter",
        "evictions",
    )

    def __init__(self, size: int, ways: int, block: int, interleave: int = 1) -> None:
        if size % (ways * block):
            raise ValueError("cache size must be sets * ways * block")
        if interleave < 1:
            raise ValueError("interleave must be >= 1")
        self.size = size
        self.ways = ways
        self.block = block
        self.interleave = interleave
        self.n_sets = size // (ways * block)
        self._stride = block * interleave
        self._sets: List[Dict[int, list]] = [dict() for _ in range(self.n_sets)]
        self._use_counter = 0
        self.evictions = 0

    def _set_of(self, addr: int) -> Dict[int, list]:
        return self._sets[(addr // self._stride) % self.n_sets]

    def _find(self, addr: int) -> Optional[list]:
        """The line at ``addr`` with its recency touched, or None."""
        entry = self._set_of(addr).get(addr)
        if entry is not None:
            self._use_counter += 1
            entry[0] = self._use_counter
        return entry

    def _claim(self, addr: int, payload) -> list:
        """The line at ``addr``, touched, else a new one holding
        ``payload`` (evicting the LRU way of a full set)."""
        lines = self._set_of(addr)
        self._use_counter += 1
        entry = lines.get(addr)
        if entry is not None:
            entry[0] = self._use_counter
            return entry
        if len(lines) >= self.ways:
            del lines[min(lines, key=lambda b: lines[b][0])]
            self.evictions += 1
        entry = lines[addr] = [self._use_counter, payload]
        return entry

    def contains(self, addr: int) -> bool:
        """Presence without touching LRU state."""
        return addr in self._set_of(addr)


class L1Cache(SetAssocCache):
    """The L1: each line's payload is its data-ready cycle."""

    __slots__ = ()

    def lookup(self, block_addr: int) -> Optional[int]:
        """Probe; returns the line's data-ready cycle on hit, else None.

        Does not allocate, and counts nothing: the load/store unit books
        hits and misses in its ``Stats``.
        """
        entry = self._find(block_addr)
        return None if entry is None else entry[1]

    def fill(self, block_addr: int, ready_at: int) -> None:
        """Allocate a line whose data arrives at ``ready_at``; a refill
        keeps the earlier ready cycle.  Write-through keeps lines clean,
        so evictions are silent."""
        entry = self._claim(block_addr, ready_at)
        if ready_at < entry[1]:
            entry[1] = ready_at
