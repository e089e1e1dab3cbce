"""Shared L2 cache: sectored, set-associative, partitioned by address.

The device-level memory system between the per-SM L1s and DRAM.  The
L2 is split into ``dram_partitions`` independent slices, each owning a
private DRAM channel; a request is routed to the slice of its line
address (low-order line-interleaving, as GPUs stripe their L2 across
memory controllers).  Lines are *sectored*: a line allocates tag state
for ``l2_block`` bytes but fills only the ``l2_sector``-byte sectors a
miss actually touches, so sparse access patterns do not pay full-line
fill bandwidth.  Like the L1 it is write-through/no-write-allocate and
therefore always clean — evictions are silent and no inclusion
traffic back to the L1s is modelled.

Tags obey the L1's LRU rule (:class:`repro.timing.cache.SetAssocCache`)
and timing mirrors the L1's: each sector records the cycle its fill
completes, so a hit under an in-flight fill waits for the data rather
than the tag, and the slice's own per-sector MSHRs merge concurrent
misses from different SMs into one DRAM transfer.  :class:`L2System`
is the two-method memory sink (``request``, ``post_write_segments``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.timing.cache import SetAssocCache
from repro.timing.dram import DRAMChannel


class L2Cache(SetAssocCache):
    """One partition's sectored tag/sector store: each line's payload
    is ``{sector_index: ready_at}``.  ``interleave`` is the device's
    partition count (see :class:`~repro.timing.cache.SetAssocCache`).
    """

    __slots__ = ("sector", "sectors_per_line")

    def __init__(
        self, size: int, ways: int, block: int, sector: int, interleave: int = 1
    ) -> None:
        if block % sector:
            raise ValueError("block must be a multiple of sector")
        super().__init__(size, ways, block, interleave)
        self.sector = sector
        self.sectors_per_line = block // sector

    def line_of(self, addr: int) -> int:
        return addr // self.block * self.block

    def sectors_of(self, addr: int, nbytes: int) -> range:
        """Sector indices (within the line) covering [addr, addr+nbytes)."""
        offset = addr - self.line_of(addr)
        first = offset // self.sector
        last = (offset + max(nbytes, 1) - 1) // self.sector
        return range(first, min(last, self.sectors_per_line - 1) + 1)

    def probe(self, line_addr: int, sectors: range) -> Tuple[Optional[int], List[int]]:
        """Look up ``sectors`` of one line.

        Returns ``(ready_at, missing)``: the latest fill-complete cycle
        over the present sectors (None when the line itself is absent)
        and the list of absent sector indices.  Touches LRU state.
        """
        entry = self._find(line_addr)
        if entry is None:
            return None, list(sectors)
        present = entry[1]
        ready = 0
        missing: List[int] = []
        for s in sectors:
            if s in present:
                ready = max(ready, present[s])
            else:
                missing.append(s)
        return ready, missing

    def fill(self, line_addr: int, sectors: List[int], ready_at: int) -> None:
        """Install sectors whose data arrives at ``ready_at``.

        Allocates the line (evicting the LRU way) if needed; refills of
        a present sector keep the earliest ready time, as a second fill
        can only be a merge of the same DRAM transfer.
        """
        present = self._claim(line_addr, {})[1]
        for s in sectors:
            if s in present:
                present[s] = min(present[s], ready_at)
            else:
                present[s] = ready_at


class L2Partition:
    """One L2 slice plus its private DRAM channel and the L2's own
    MSHR table, keyed by (line, sector)."""

    __slots__ = (
        "cache",
        "dram",
        "latency",
        "_pending",
        "accesses",
        "hits",
        "misses",
        "sector_fills",
    )

    def __init__(
        self,
        size: int,
        ways: int,
        block: int,
        sector: int,
        latency: int,
        dram: DRAMChannel,
        interleave: int = 1,
    ) -> None:
        self.cache = L2Cache(size, ways, block, sector, interleave)
        self.dram = dram
        self.latency = latency
        # (line_addr, sector_index) -> cycle the in-flight fill lands.
        self._pending: Dict[Tuple[int, int], int] = {}
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.sector_fills = 0

    def read(self, addr: int, nbytes: int, now: int) -> int:
        """Serve one read; returns the cycle data reaches the L1."""
        self.accesses += 1
        cache = self.cache
        line = cache.line_of(addr)
        sectors = cache.sectors_of(addr, nbytes)
        present_ready, missing = cache.probe(line, sectors)
        ready = now if present_ready is None else max(now, present_ready)
        if not missing:
            self.hits += 1
            return ready + self.latency
        self.misses += 1
        to_fetch: List[int] = []
        for s in missing:
            pending = self._pending.get((line, s))
            if pending is not None and pending > now:
                ready = max(ready, pending)  # MSHR merge
            else:
                if pending is not None:
                    del self._pending[(line, s)]  # fill landed: retire MSHR
                to_fetch.append(s)
        if to_fetch:
            fill = self.dram.request(len(to_fetch) * cache.sector, now)
            self.sector_fills += len(to_fetch)
            for s in to_fetch:
                self._pending[(line, s)] = fill
            cache.fill(line, to_fetch, fill)
            ready = max(ready, fill)
        return ready + self.latency

    @property
    def dram_bytes(self) -> float:
        return self.dram.bytes_transferred


class L2System:
    """The shared memory side of a :class:`repro.core.gpu.GPUDevice`.

    The same two-method sink as :class:`~repro.timing.dram.DRAMChannel`
    (``request`` and ``post_write_segments``), so an SM's load-store
    unit is agnostic to whether it talks to a private channel or the
    shared hierarchy.  All SMs of a device hold the same ``L2System``.
    """

    __slots__ = ("block", "partitions")

    def __init__(self, config) -> None:
        if not config.uses_l2:
            raise ValueError("L2System requires l2_size > 0")
        self.block = config.l2_block
        self.partitions = [
            L2Partition(
                config.l2_slice_size,
                config.l2_ways,
                config.l2_block,
                config.l2_sector,
                config.l2_latency,
                DRAMChannel(config.partition_bandwidth, config.effective_dram_latency),
                interleave=config.dram_partitions,
            )
            for _ in range(config.dram_partitions)
        ]

    def partition_of(self, addr: int) -> L2Partition:
        return self.partitions[(addr // self.block) % len(self.partitions)]

    def request(self, nbytes: int, now: int, addr: int = 0) -> int:
        return self.partition_of(addr).read(addr, nbytes, now)

    def post_write_segments(self, segments, seg_bytes: int, now: int) -> None:
        """Write-through: route each touched store segment straight to
        its partition's channel (no slice allocates on a write)."""
        for seg in segments:
            self.partition_of(int(seg) * seg_bytes).dram.post_write(seg_bytes, now)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return sum(p.accesses for p in self.partitions)

    @property
    def hits(self) -> int:
        return sum(p.hits for p in self.partitions)

    @property
    def misses(self) -> int:
        return sum(p.misses for p in self.partitions)

    @property
    def sector_fills(self) -> int:
        return sum(p.sector_fills for p in self.partitions)

    @property
    def dram_bytes(self) -> float:
        return sum(p.dram_bytes for p in self.partitions)
