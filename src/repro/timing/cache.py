"""L1 data cache model — 48 KB, 6-way, 128 B blocks, LRU (Table 2).

Write-through, no write-allocate (Fermi-style for global stores): loads
allocate on miss; a store never consults this cache — the load/store
unit posts its segments to DRAM and that is all, so it allocates no
line and moves no LRU position, and since lines hold no data a present
line needs no update.  Each line records the cycle its fill completes,
so a hit under a pending fill waits for the data rather than the tag.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class L1Cache:
    """Set-associative cache with per-line fill timestamps."""

    __slots__ = (
        "size",
        "ways",
        "block",
        "latency",
        "n_sets",
        "_sets",
        "_use_counter",
    )

    def __init__(self, size: int, ways: int, block: int, latency: int) -> None:
        if size % (ways * block):
            raise ValueError("cache size must be sets * ways * block")
        self.size = size
        self.ways = ways
        self.block = block
        self.latency = latency
        self.n_sets = size // (ways * block)
        # Per set: {block_addr: (last_use, ready_at)}
        self._sets: List[Dict[int, List[int]]] = [dict() for _ in range(self.n_sets)]
        self._use_counter = 0

    def _set_of(self, block_addr: int) -> Dict[int, List[int]]:
        index = (block_addr // self.block) % self.n_sets
        return self._sets[index]

    def _touch(self, entry: List[int]) -> None:
        self._use_counter += 1
        entry[0] = self._use_counter

    # ------------------------------------------------------------------

    def lookup(self, block_addr: int) -> Optional[int]:
        """Probe; returns the line's data-ready cycle on hit, else None.

        Does not allocate, and counts nothing: the load/store unit books
        hits and misses in its ``Stats``.
        """
        lines = self._set_of(block_addr)
        entry = lines.get(block_addr)
        if entry is None:
            return None
        self._touch(entry)
        return entry[1]

    def fill(self, block_addr: int, ready_at: int) -> None:
        """Allocate a line whose data arrives at ``ready_at`` (LRU victim).

        Write-through keeps lines clean, so evictions are silent.
        """
        lines = self._set_of(block_addr)
        if block_addr in lines:
            entry = lines[block_addr]
            entry[1] = min(entry[1], ready_at)
            self._touch(entry)
            return
        if len(lines) >= self.ways:
            victim = min(lines, key=lambda b: lines[b][0])
            del lines[victim]
        self._use_counter += 1
        lines[block_addr] = [self._use_counter, ready_at]

    def invalidate_all(self) -> None:
        for s in self._sets:
            s.clear()
