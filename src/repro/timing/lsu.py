"""Load-store unit: coalescing, replay, bank conflicts, atomics.

The LSU owns a single 128-byte port to the L1 (paper section 2).  A
memory instruction is broken into *transactions*:

* **global**: one per distinct 128 B block touched by active threads
  (perfect intra-warp coalescing).  Additional transactions replay on
  subsequent cycles, occupying the port — this is the paper's
  "memory instructions that encounter conflicts are replayed with an
  updated activity mask".
* **shared**: one per maximal conflict-free bank access; threads
  reading the same word broadcast for free, distinct words in the same
  bank serialise (32 banks).
* **atomics**: serialise per active thread (Fermi-era behaviour);
  global atomics additionally fetch their blocks through the L1 and
  spend write-through bandwidth.

Coalescing operates on *thread-space* addresses, so lane shuffling
(which permutes threads to physical lanes) never changes transaction
counts — one of the paper's arguments for shuffling over dynamic warp
formation.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Tuple

import numpy as np

from repro.isa.instructions import Instruction, MemSpace, Op
from repro.timing.cache import L1Cache
from repro.timing.dram import DRAMChannel
from repro.timing.stats import Stats

#: The bank-conflict memo is cleared past this many ≤ 512-byte keys.
_MEMO_LIMIT = 1 << 10


class LoadStoreUnit:
    """Transaction generation and timing for one memory instruction.

    ``dram`` is the SM's memory sink, a private :class:`DRAMChannel`
    (the paper's single-SM model) or a shared
    :class:`repro.timing.l2.L2System` injected by the device layer; the
    unit makes two calls on it, ``request(nbytes, now, addr)`` for a
    block read and ``post_write_segments(segments, seg_bytes, now)``
    for write-through traffic.
    """

    __slots__ = (
        "config",
        "cache",
        "dram",
        "stats",
        "_pending_fills",
        "_conflict_memo",
        "_segment_divisor",
        "_block_divisor",
    )

    def __init__(self, config, cache: L1Cache, dram: DRAMChannel, stats: Stats) -> None:
        self.config = config
        self.cache = cache
        self.dram = dram
        self.stats = stats
        # Unit sizes as 0-d int64 arrays: a ufunc given a Python int
        # converts and promotes it on every call (see _units_of).
        self._segment_divisor = np.array(config.store_segment, dtype=np.int64)
        self._block_divisor = np.array(config.l1_block, dtype=np.int64)
        # The L1's MSHR merge table: block -> fill-complete cycle.
        self._pending_fills: Dict[int, int] = {}
        # (address bytes, serialize_all) -> bank-conflict transactions:
        # shared addresses are CTA-relative, so the same vectors recur.
        self._conflict_memo: Dict[Tuple[bytes, bool], int] = {}

    # ------------------------------------------------------------------

    def access(self, instr: Instruction, addrs: np.ndarray, now: int) -> Tuple[int, int]:
        """Process a memory instruction issued at ``now``.

        ``addrs`` holds the byte addresses of the active lanes only, in
        lane order — the vector the functional access gathered
        (``ExecOutcome.lane_addresses``); the space is ``instr.space``.

        Returns ``(occupancy_cycles, writeback_cycle)``: the number of
        cycles the LSU port is held (1 + replays) and the cycle the
        result is architecturally complete (scoreboard release for
        loads/atomics; port drain for stores).
        """
        if addrs.size == 0:
            return 1, now + self.config.l1_latency
        if instr.space is MemSpace.SHARED:
            return self._shared(instr, addrs, now)
        return self._global(instr, addrs, now)

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def _shared_conflicts(self, addrs: np.ndarray, serialize_all: bool) -> int:
        # Loads/stores broadcast identical words for free, so distinct
        # addresses per bank count; atomics serialise every access.
        # (Addresses are word-aligned here — the functional access
        # already succeeded — so distinct address == distinct word.)
        words = addrs.tolist()
        if not serialize_all:
            words = set(words)
        n_banks = self.config.shared_banks
        banks = [(a // 4) % n_banks for a in words]
        if len(set(banks)) == len(banks):
            return 1  # conflict-free: every access has a bank to itself
        per_bank = [0] * n_banks
        for bank in banks:
            per_bank[bank] += 1
        return max(per_bank)

    def _shared(self, instr: Instruction, addrs: np.ndarray, now: int) -> Tuple[int, int]:
        # The conflict walk, memoised on the lanes' address bytes (and
        # on ``serialize_all``: a load and an atomic share no answer).
        key = (addrs.tobytes(), instr.op not in (Op.LD, Op.ST))
        memo = self._conflict_memo
        transactions = memo.get(key)
        if transactions is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            transactions = memo[key] = self._shared_conflicts(addrs, key[1])
        self.stats.shared_transactions += transactions
        self.stats.memory_replays += transactions - 1
        wb = now + transactions - 1 + self.config.shared_latency
        return transactions, wb

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------

    @staticmethod
    def _units_of(addrs: np.ndarray, divisor: np.ndarray) -> List[int]:
        """Ascending ids of the blocks or segments of ``divisor`` bytes
        (a 0-d array) touched: sorted(set()) beats np.unique at warp
        sizes (2.5 against 5.5 µs at 64 lanes), and plain ints."""
        return sorted(set((addrs // divisor).tolist()))

    def _fetch_blocks(self, blocks: List[int], now: int) -> int:
        """Read ``blocks`` through L1/MSHR/DRAM, one per cycle from
        ``now``; returns the cycle the last one's data is ready."""
        stats = self.stats
        cache = self.cache
        block_bytes = self.config.l1_block
        hit_latency = self.config.l1_latency
        pending_fills = self._pending_fills
        ready_by = at = now
        for block in blocks:
            block_addr = block * block_bytes
            ready = cache.lookup(block_addr)
            if ready is not None:
                stats.l1_hits += 1
                ready = max(ready, at + hit_latency)
            else:
                stats.l1_misses += 1
                ready = pending_fills.get(block)
                if ready is None or ready <= at:
                    # No in-flight fill to merge with (MSHR): go out.
                    ready = self.dram.request(block_bytes, at, block_addr)
                    stats.dram_bytes += block_bytes
                    pending_fills[block] = ready
                    cache.fill(block_addr, ready)
            ready_by = max(ready_by, ready)
            at += 1
        stats.l1_accesses += at - now
        return ready_by

    def _post_segments(self, segments: List[int], at: int) -> None:
        """Write-through traffic for the touched store segments."""
        seg_bytes = self.config.store_segment
        self.dram.post_write_segments(segments, seg_bytes, at)
        self.stats.dram_bytes += len(segments) * seg_bytes

    def _global(self, instr: Instruction, addrs: np.ndarray, now: int) -> Tuple[int, int]:
        seg_bytes, block_bytes = self.config.store_segment, self.config.l1_block
        if instr.op is Op.ST:
            # One transaction per L1 block touched, carrying that
            # block's segments: runs of the sorted segment ids that
            # share a block id.
            segments = self._units_of(addrs, self._segment_divisor)
            occupancy = 0
            for _, run in groupby(segments, lambda seg: seg * seg_bytes // block_bytes):
                self._post_segments(list(run), now + occupancy)
                occupancy += 1
            wb = now + occupancy
        else:
            blocks = self._units_of(addrs, self._block_divisor)
            wb = self._fetch_blocks(blocks, now)
            occupancy = len(blocks)
            if instr.op is not Op.LD:
                # Atomics: each block fetched once, then one thread
                # per cycle, the write-through traffic up front.
                occupancy = int(addrs.size)
                self._post_segments(self._units_of(addrs, self._segment_divisor), now)
                wb = max(wb, now + occupancy - 1) + 1
        self.stats.global_transactions += occupancy
        self.stats.memory_replays += occupancy - 1
        return occupancy, wb
