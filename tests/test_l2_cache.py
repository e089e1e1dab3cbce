"""Shared L2: sectored lines, partitioning, MSHRs (the LRU rule is
held at both levels in ``test_memory_system.TestLRURule``)."""

import pytest

from repro.timing.config import GPUConfig, SMConfig
from repro.timing.dram import DRAMChannel
from repro.timing.l2 import L2Cache, L2Partition, L2System


def make_cache(sets=4, ways=2, block=128, sector=32):
    return L2Cache(size=sets * ways * block, ways=ways, block=block, sector=sector)


def make_partition(sets=4, ways=2, latency=10, bandwidth=16.0, dram_latency=100):
    return L2Partition(
        size=sets * ways * 128,
        ways=ways,
        block=128,
        sector=32,
        latency=latency,
        dram=DRAMChannel(bandwidth, dram_latency),
    )


class TestL2Cache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            L2Cache(size=1000, ways=3, block=128, sector=32)
        with pytest.raises(ValueError):
            L2Cache(size=1024, ways=2, block=128, sector=48)

    def test_sectors_of(self):
        c = make_cache()
        assert list(c.sectors_of(0, 128)) == [0, 1, 2, 3]
        assert list(c.sectors_of(32, 32)) == [1]
        assert list(c.sectors_of(0, 1)) == [0]
        assert list(c.sectors_of(128 + 64, 64)) == [2, 3]

    def test_miss_then_sector_hit(self):
        c = make_cache()
        ready, missing = c.probe(0, range(4))
        assert ready is None and missing == [0, 1, 2, 3]
        c.fill(0, [0, 1], ready_at=50)
        ready, missing = c.probe(0, range(2))
        assert ready == 50 and missing == []

    def test_partial_line_still_misses_other_sectors(self):
        c = make_cache()
        c.fill(0, [0], ready_at=10)
        ready, missing = c.probe(0, range(4))
        assert ready == 10 and missing == [1, 2, 3]

    def test_eviction_drops_all_sectors(self):
        c = make_cache(sets=1, ways=1)
        c.fill(0, [0, 1, 2, 3], 0)
        c.fill(128, [0], 0)  # same (only) set: evicts line 0 entirely
        ready, missing = c.probe(0, range(4))
        assert ready is None and missing == [0, 1, 2, 3]

    def test_interleaved_slice_uses_all_sets(self):
        """A partition only sees every Nth line; set indexing must
        strip the partition bits or 1/N of the sets go unused."""
        c = L2Cache(size=4 * 1 * 128, ways=1, block=128, sector=32, interleave=4)
        # Partition 0 of a 4-way interleave sees line indices 0,4,8,12.
        for i in range(4):
            c.fill(i * 4 * 128, [0], 0)
        assert c.evictions == 0  # four lines, four distinct sets
        for i in range(4):
            assert c.contains(i * 4 * 128)


class TestL2Partition:
    def test_hit_latency(self):
        p = make_partition(latency=10)
        p.read(0, 128, now=0)  # miss, fills all 4 sectors
        hit = p.read(0, 128, now=1000)
        assert hit == 1000 + 10
        assert p.hits == 1 and p.misses == 1 and p.accesses == 2

    def test_miss_fetches_only_missing_sectors(self):
        p = make_partition()
        p.read(0, 32, now=0)  # one sector
        assert p.sector_fills == 1
        assert p.dram.bytes_transferred == 32
        p.read(0, 128, now=1000)  # the other three
        assert p.sector_fills == 4
        assert p.dram.bytes_transferred == 128

    def test_mshr_merges_concurrent_misses(self):
        p = make_partition()
        first = p.read(0, 128, now=0)
        second = p.read(0, 128, now=1)  # fill in flight: no new traffic
        assert p.dram.bytes_transferred == 128
        assert second <= first + 1


class TestL2System:
    def _config(self, partitions=2):
        return GPUConfig(
            sm=SMConfig(),
            sm_count=2,
            l2_size=partitions * 4 * 2 * 128,  # 4 sets x 2 ways per slice
            l2_ways=2,
            dram_partitions=partitions,
            dram_bandwidth=32.0,
        )

    def test_requires_l2(self):
        with pytest.raises(ValueError):
            L2System(GPUConfig())

    def test_partition_routing_by_line_address(self):
        sys = L2System(self._config(partitions=2))
        sys.request(128, now=0, addr=0)  # line 0 -> partition 0
        sys.request(128, now=0, addr=128)  # line 1 -> partition 1
        sys.request(128, now=0, addr=256)  # line 2 -> partition 0
        assert [p.accesses for p in sys.partitions] == [2, 1]

    def test_partitions_have_independent_bandwidth(self):
        sys = L2System(self._config(partitions=2))
        a = sys.request(128, now=0, addr=0)
        b = sys.request(128, now=0, addr=128)
        assert a == b  # different channels: no serialisation

    def test_slices_spread_their_lines_over_all_sets(self):
        sys = L2System(self._config(partitions=2))
        # 8 consecutive lines land 4 per partition; each slice has
        # 4 sets x 2 ways, so nothing should be evicted.
        for line in range(8):
            sys.request(128, now=0, addr=line * 128)
        assert sum(p.cache.evictions for p in sys.partitions) == 0

    def test_write_through_consumes_bandwidth(self):
        sys = L2System(self._config(partitions=1))
        sys.post_write_segments([0, 1], 32, now=0)
        p = sys.partitions[0]
        assert p.dram.bytes_transferred == 64
        assert p.cache.contains(0) is False  # no write-allocate

    def test_aggregate_counters(self):
        sys = L2System(self._config(partitions=2))
        sys.request(128, now=0, addr=0)
        sys.request(128, now=10_000, addr=0)
        sys.post_write_segments([128 // 32], 32, now=0)
        assert sys.accesses == 2 and sys.hits == 1 and sys.misses == 1
        assert sys.sector_fills == 4
        assert sys.dram_bytes == 128 + 32
