"""Off-chip memory: throughput-limited, constant latency.

The paper follows Gebhart et al.'s methodology: memory is modelled as a
fixed-latency pipe with a hard bandwidth cap (10 GB/s per SM, 330 ns).
Requests serialise on a single channel at ``bandwidth`` bytes/cycle
(``DRAMChannel._slot``); data returns a constant ``latency`` after a
request's slot on the channel.  Outstanding fills to the same block are
merged (MSHR behaviour) by the LSU layer.  A private channel is a
two-method memory sink (``request``, ``post_write_segments``), as the
device's :class:`repro.timing.l2.L2System` is.
"""

from __future__ import annotations


class DRAMChannel:
    """Bandwidth-serialised request channel."""

    __slots__ = (
        "bandwidth",
        "latency",
        "_free_at",
        "bytes_transferred",
    )

    def __init__(self, bandwidth: float, latency: int) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.latency = latency
        self._free_at = 0.0
        self.bytes_transferred = 0.0

    def _slot(self, nbytes: int, now: int) -> float:
        """Serialise ``nbytes`` from ``now``; the cycle the slot drains."""
        start = max(float(now), self._free_at)
        self._free_at = start + nbytes / self.bandwidth
        self.bytes_transferred += nbytes
        return self._free_at

    def request(self, nbytes: int, now: int, addr: int = 0) -> int:
        """Schedule a read; returns the data-arrival cycle.

        ``addr`` is accepted for interface compatibility with the
        address-partitioned L2 system and is ignored by a flat channel.
        """
        return int(self._slot(nbytes, now) + self.latency) + 1

    def post_write(self, nbytes: int, now: int) -> int:
        """Write traffic: consumes bandwidth; completion is when the
        channel slot drains (stores are fire-and-forget through a
        store buffer)."""
        return int(self._slot(nbytes, now)) + 1

    def post_write_segments(self, segments, seg_bytes: int, now: int) -> None:
        """Write-through traffic for a set of touched store segments.

        On a flat channel one aggregate transfer costs exactly the
        same bandwidth as per-segment transfers, so collapse them; the
        partitioned :class:`repro.timing.l2.L2System` routes each
        segment to its slice's channel instead.
        """
        self.post_write(len(segments) * seg_bytes, now)
