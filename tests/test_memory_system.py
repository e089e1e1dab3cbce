"""L1 cache, DRAM channel and LSU coalescing/replay."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.functional.memory import (
    WORD_BYTES,
    MemoryAccessError,
    MemoryImage,
    SharedMemory,
)
from repro.isa.instructions import Instruction, MemSpace, Op, imm, reg
from repro.timing.cache import L1Cache, SetAssocCache
from repro.timing.config import SMConfig
from repro.timing.dram import DRAMChannel
from repro.timing.l2 import L2Cache
from repro.timing.lsu import LoadStoreUnit
from repro.timing.stats import Stats


class TestMemoryImage:
    def test_alloc_alignment(self):
        mem = MemoryImage(1 << 12)
        a = mem.alloc(100)
        b = mem.alloc(4)
        assert a % 128 == 0 and b % 128 == 0 and b > a

    def test_zero_address_reserved(self):
        mem = MemoryImage(1 << 12)
        assert mem.alloc(4) >= 128

    def test_out_of_memory(self):
        mem = MemoryImage(256)
        with pytest.raises(MemoryAccessError):
            mem.alloc(512)

    def test_misaligned_access(self):
        mem = MemoryImage(1 << 12)
        with pytest.raises(MemoryAccessError):
            mem.load(np.array([2]))

    def test_vector_bounds(self):
        mem = MemoryImage(256)
        with pytest.raises(MemoryAccessError):
            mem.load(np.array([1024]))

    def test_store_load_roundtrip(self):
        mem = MemoryImage(1 << 12)
        a = mem.alloc_array(np.arange(8))
        got = mem.load(np.arange(8) * 4 + a)
        assert np.array_equal(got, np.arange(8))

    def test_atomic_ops(self):
        mem = MemoryImage(1 << 12)
        a = mem.alloc_array(np.array([10.0]))
        old = mem.atomic(np.array([a, a]), np.array([1.0, 2.0]), "add")
        assert list(old) == [10.0, 11.0]
        assert mem.read_array(a, 1)[0] == 13.0
        mem.atomic(np.array([a]), np.array([5.0]), "min")
        assert mem.read_array(a, 1)[0] == 5.0
        mem.atomic(np.array([a]), np.array([9.0]), "max")
        assert mem.read_array(a, 1)[0] == 9.0

    def test_unknown_atomic_op_leaves_memory_untouched(self):
        mem = MemoryImage(1 << 12)
        a = mem.alloc_array(np.array([10.0, 20.0]))
        with pytest.raises(ValueError, match="unknown atomic op 'xor'"):
            mem.atomic(np.array([a, a + 4]), np.array([1.0, 2.0]), "xor")
        assert list(mem.read_array(a, 2)) == [10.0, 20.0]

    def test_unknown_atomic_op_raises_with_zero_lanes(self):
        mem = MemoryImage(1 << 12)
        with pytest.raises(ValueError, match="unknown atomic op 'xor'"):
            mem.atomic(np.array([], dtype=np.int64), np.array([]), "xor")

    def test_shared_starts_at_zero(self):
        sh = SharedMemory(64)
        assert sh.alloc(4) == 0

    @pytest.mark.parametrize(
        "size", ["8", -4, 4.0, True, 6, None, np.int64(8)], ids=repr
    )
    def test_size_must_be_a_non_negative_int_multiple_of_a_word(self, size):
        with pytest.raises(ValueError, match="got %s$" % re.escape(repr(size))):
            MemoryImage(size)

    def test_zero_size_image_refuses_every_access(self):
        mem = MemoryImage(0)
        assert mem.size_bytes == 0 and mem.words.size == 0
        with pytest.raises(MemoryAccessError):
            mem.read_array(0, 1)
        with pytest.raises(MemoryAccessError):
            mem.load(np.array([0]))
        with pytest.raises(MemoryAccessError):
            mem.store(np.array([0]), np.array([1.0]))
        with pytest.raises(MemoryAccessError):
            mem.atomic(np.array([0]), np.array([1.0]), "add")

    @pytest.mark.parametrize("size, rounded", [(-8, 4), (0, 4), (1, 4), (4, 4), (5, 8)])
    def test_shared_rounds_small_sizes_up_to_a_word(self, size, rounded):
        assert SharedMemory(size).size_bytes == rounded


def _atomic_scalar_walk(mem, addrs, values, op):
    """``MemoryImage.atomic`` as it was before the walk over Python
    floats: one numpy scalar per read, combine and write."""
    combine = {"add": lambda a, b: a + b, "min": min, "max": max}[op]
    idx = mem._word_indices(addrs)
    old = np.empty(len(idx), dtype=np.float64)
    for k, i in enumerate(idx):
        word = mem.words[i]
        old[k] = word
        mem.words[i] = combine(word, values[k])
    return old


_ATOMIC_WORDS = 8
_operand = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.integers(-(1 << 31), 1 << 31).map(float),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, float("inf"), 0.1, 1 / 3]),
)


class TestAtomicWalkOracle:
    """The list walk is the scalar walk, bit for bit: old values
    returned, memory left behind, duplicates applied in lane order."""

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    @given(
        lanes=st.lists(
            st.tuples(st.integers(0, _ATOMIC_WORDS - 1), _operand), max_size=64
        ),
        initial=st.lists(_operand, min_size=_ATOMIC_WORDS, max_size=_ATOMIC_WORDS),
    )
    @example(lanes=[(3, 1.0)] * 32, initial=[0.0] * _ATOMIC_WORDS)  # one hot word
    @example(lanes=[(0, 0.1), (0, 0.2), (0, 0.3)], initial=[1e16] * _ATOMIC_WORDS)
    @example(lanes=[(1, -0.0), (1, 0.0)], initial=[0.0] * _ATOMIC_WORDS)
    @example(lanes=[], initial=[0.0] * _ATOMIC_WORDS)
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_scalar_walk(self, op, lanes, initial):
        got_mem, want_mem = SharedMemory(64), SharedMemory(64)
        for mem in (got_mem, want_mem):
            mem.write_array(0, np.array(initial))
        addrs = np.array([w * WORD_BYTES for w, _ in lanes], dtype=np.int64)
        values = np.array([v for _, v in lanes], dtype=np.float64)
        with np.errstate(all="ignore"):
            got = got_mem.atomic(addrs, values, op)
            want = _atomic_scalar_walk(want_mem, addrs, values, op)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_mem.words.tobytes() == want_mem.words.tobytes()

    def test_broadcast_operand_and_interpreter_agree(self):
        """The plans hand over a broadcast view when the operand is a
        scalar: the walk must not need a writable or contiguous one."""
        mem = MemoryImage(1 << 12)
        a = mem.alloc_array(np.array([5.0, 7.0]))
        values = np.broadcast_to(np.float64(2.0), (4,))
        old = mem.atomic(np.array([a, a + 4, a, a]), values, "add")
        assert list(old) == [5.0, 7.0, 7.0, 9.0]
        assert list(mem.read_array(a, 2)) == [11.0, 9.0]


#: Each level's tag store behind one face: ``(make(sets, ways),
#: fill(cache, addr, ready_at), ready(cache, addr))``, where ``ready``
#: is a hit's data-ready cycle (touching LRU state) or None on a miss.
LEVELS = {
    "L1": (
        lambda sets, ways: L1Cache(size=sets * ways * 128, ways=ways, block=128),
        lambda c, addr, ready_at: c.fill(addr, ready_at),
        lambda c, addr: c.lookup(addr),
    ),
    "L2": (
        lambda sets, ways: L2Cache(size=sets * ways * 128, ways=ways, block=128, sector=32),
        lambda c, addr, ready_at: c.fill(addr, [0], ready_at),
        lambda c, addr: c.probe(addr, range(1))[0],
    ),
}


class TestLRURule:
    """The one LRU rule of :class:`SetAssocCache`, held at both levels."""

    SETS, WAYS = 4, 2
    STRIDE = 4 * 128  # addresses one set apart

    @pytest.fixture(params=sorted(LEVELS))
    def level(self, request):
        make, fill, ready = LEVELS[request.param]
        return make(self.SETS, self.WAYS), fill, ready

    def test_miss_then_hit(self, level):
        c, fill, ready = level
        assert ready(c, 0) is None
        fill(c, 0, 10)
        assert ready(c, 0) == 10

    def test_victim_is_the_least_recently_used_way(self, level):
        c, fill, _ = level
        s = self.STRIDE
        fill(c, 0, 0)
        fill(c, s, 0)  # same set, second way
        fill(c, 2 * s, 0)  # evicts 0, the older fill
        assert not c.contains(0)
        assert c.contains(s) and c.contains(2 * s)

    def test_a_hit_refreshes_recency(self, level):
        c, fill, ready = level
        s = self.STRIDE
        fill(c, 0, 0)
        fill(c, s, 0)
        ready(c, 0)  # touch 0 so s is LRU
        fill(c, 2 * s, 0)  # evicts s
        assert c.contains(0) and c.contains(2 * s)
        assert not c.contains(s)

    def test_a_refill_keeps_the_earlier_ready_cycle(self, level):
        c, fill, ready = level
        fill(c, 0, 20)
        fill(c, 0, 10)
        assert ready(c, 0) == 10
        fill(c, 0, 30)
        assert ready(c, 0) == 10

    def test_a_full_set_counts_one_eviction(self, level):
        c, fill, _ = level
        s = self.STRIDE
        for way in range(self.WAYS):
            fill(c, way * s, 0)
        fill(c, 0, 0)  # a refill allocates nothing
        assert c.evictions == 0
        fill(c, self.WAYS * s, 0)
        assert c.evictions == 1

    @pytest.mark.parametrize("interleave", [1, 2, 3, 4])
    def test_one_division_picks_the_old_set(self, interleave):
        c = SetAssocCache(size=8 * 2 * 128, ways=2, block=128, interleave=interleave)
        for addr in range(0, 64 * 128 * interleave, 32):
            old = (addr // c.block // interleave) % c.n_sets
            assert c._set_of(addr) is c._sets[old], addr

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            L1Cache(size=1000, ways=3, block=128)
        with pytest.raises(ValueError):
            SetAssocCache(size=1024, ways=2, block=128, interleave=0)


class TestDRAM:
    def test_latency(self):
        d = DRAMChannel(bandwidth=16.0, latency=100)
        done = d.request(128, now=0)
        assert done == 100 + 128 // 16 + 1

    def test_bandwidth_serialisation(self):
        d = DRAMChannel(bandwidth=16.0, latency=100)
        first = d.request(128, now=0)
        second = d.request(128, now=0)
        assert second - first == 128 // 16

    def test_reads_and_writes_share_the_slot(self):
        d = DRAMChannel(bandwidth=16.0, latency=100)
        assert d.post_write(128, now=0) == 128 // 16 + 1
        assert d.request(128, now=0) == 100 + 2 * 128 // 16 + 1

    def test_write_traffic_counted(self):
        d = DRAMChannel(bandwidth=10.0, latency=330)
        d.post_write(64, now=0)
        assert d.bytes_transferred == 64

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            DRAMChannel(0.0, 10)


#: Deliberately not a power of two: ``0x1000 | 0x0FFC`` folds to
#: 0x1FFC, past the end, though both lanes are inside.
ORACLE_SIZE = 0x1800


def _word_indices_oracle(mem, addrs):
    """``MemoryImage._word_indices`` as it was before the one-fold
    bounds check: three reductions, every time."""
    if addrs.size == 0:
        return addrs.astype(np.int64)
    if (addrs & (WORD_BYTES - 1)).any():
        raise MemoryAccessError("misaligned vector access")
    lo = int(addrs.min())
    hi = int(addrs.max())
    if lo < 0 or hi >= mem.size_bytes:
        raise MemoryAccessError(
            "vector access out of range (min=%d max=%d size=%d)"
            % (lo, hi, mem.size_bytes)
        )
    return (addrs // WORD_BYTES).astype(np.int64)


def _answer(fn, *args):
    try:
        return fn(*args)
    except MemoryAccessError as exc:
        return str(exc)


_lane = st.one_of(
    st.integers(0, ORACLE_SIZE // WORD_BYTES - 1).map(lambda w: w * WORD_BYTES),
    st.integers(-16, ORACLE_SIZE + 16),
    st.sampled_from([-4, 0, 0x0FFC, 0x1000, ORACLE_SIZE - 4, ORACLE_SIZE, 1 << 40, -(1 << 40)]),
)


class TestWordIndicesOracle:
    """The one-fold check raises exactly when — and what — the exact
    any/min/max test raises, and returns the same indices otherwise."""

    @pytest.mark.parametrize("make", [MemoryImage, SharedMemory])
    @given(lanes=st.lists(_lane, max_size=64))
    @example(lanes=[])
    @example(lanes=[0x1000, 0x0FFC])  # inconclusive fold, lanes in range
    @example(lanes=[0, ORACLE_SIZE])  # a lane at size_bytes
    @example(lanes=[128, 130, 132])  # one misaligned lane
    @example(lanes=[-4, 8])  # a negative lane
    @example(lanes=[-3, ORACLE_SIZE])  # misaligned and out of range: misaligned wins
    @settings(max_examples=300, deadline=None)
    def test_same_errors_same_indices(self, make, lanes):
        mem = make(ORACLE_SIZE)
        addrs = np.array(lanes, dtype=np.int64)
        want = _answer(_word_indices_oracle, mem, addrs)
        got = _answer(mem._word_indices, addrs)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_nothing_is_written_before_the_error(self):
        mem = MemoryImage(ORACLE_SIZE)
        before = mem.words.copy()
        for bad in ([128, 130], [128, ORACLE_SIZE], [-4, 128]):
            addrs = np.array(bad, dtype=np.int64)
            with pytest.raises(MemoryAccessError):
                mem.store(addrs, np.ones(2))
            with pytest.raises(MemoryAccessError):
                mem.atomic(addrs, np.ones(2), "add")
        assert np.array_equal(mem.words, before)


def _lsu(config=None):
    config = config or SMConfig()
    stats = Stats()
    cache = L1Cache(config.l1_size, config.l1_ways, config.l1_block)
    dram = DRAMChannel(config.dram_bandwidth, config.dram_latency)
    return LoadStoreUnit(config, cache, dram, stats), stats


def _lanes(addrs, active=None):
    """What the LSU is handed: the active lanes' byte addresses."""
    addrs = np.asarray(addrs, dtype=np.int64)
    return addrs if active is None else addrs[active]


LD = Instruction(Op.LD, dst=0, srcs=(imm(0),), space=MemSpace.GLOBAL)
ST = Instruction(Op.ST, srcs=(imm(0), reg(1)), space=MemSpace.GLOBAL)
LDS = Instruction(Op.LD, dst=0, srcs=(imm(0),), space=MemSpace.SHARED)
ATOM = Instruction(Op.ATOM_ADD, srcs=(imm(0), imm(1)), space=MemSpace.GLOBAL)


class TestCoalescing:
    def test_fully_coalesced_load(self):
        lsu, stats = _lsu()
        occ, wb = lsu.access(LD, _lanes(np.arange(32) * 4), now=0)
        assert occ == 1
        assert stats.global_transactions == 1

    def test_scattered_load_replays(self):
        lsu, stats = _lsu()
        occ, _ = lsu.access(LD, _lanes(np.arange(8) * 128), now=0)
        assert occ == 8
        assert stats.memory_replays == 7

    def test_same_word_broadcast(self):
        lsu, stats = _lsu()
        occ, _ = lsu.access(LD, _lanes(np.zeros(32)), now=0)
        assert occ == 1

    def test_hit_faster_than_miss(self):
        lsu, _ = _lsu()
        _, wb_miss = lsu.access(LD, _lanes(np.arange(32) * 4), now=0)
        _, wb_hit = lsu.access(LD, _lanes(np.arange(32) * 4), now=wb_miss)
        assert wb_hit - wb_miss < wb_miss

    def test_mshr_merges_inflight_fills(self):
        lsu, stats = _lsu()
        lsu.access(LD, _lanes(np.arange(32) * 4), now=0)
        dram_before = stats.dram_bytes
        lsu.access(LD, _lanes(np.arange(32) * 4), now=1)
        assert stats.dram_bytes == dram_before  # merged, no second fill

    def test_inactive_lanes_free(self):
        lsu, stats = _lsu()
        active = np.zeros(4, dtype=bool)
        occ, _ = lsu.access(LD, _lanes([0, 128, 256, 384], active), now=0)
        assert occ == 1 and stats.global_transactions == 0

    def test_store_charges_segments(self):
        lsu, stats = _lsu()
        occ, _ = lsu.access(ST, _lanes(np.arange(8) * 4), now=0)
        assert occ == 1
        assert stats.dram_bytes == 32  # one 32B segment

    def test_shared_bank_conflicts(self):
        lsu, stats = _lsu()
        # 32 threads hitting bank 0 with distinct words: full conflict.
        occ, _ = lsu.access(LDS, _lanes(np.arange(32) * 128), 0)
        assert occ == 32

    def test_shared_broadcast_no_conflict(self):
        lsu, _ = _lsu()
        occ, _ = lsu.access(LDS, _lanes(np.zeros(32)), 0)
        assert occ == 1

    def test_atomic_serialises_per_thread(self):
        lsu, _ = _lsu()
        occ, _ = lsu.access(ATOM, _lanes(np.zeros(16)), now=0)
        assert occ == 16


ATOMS = Instruction(Op.ATOM_ADD, srcs=(imm(0), imm(1)), space=MemSpace.SHARED)

_shared_lanes = st.lists(
    st.one_of(
        st.integers(0, 255).map(lambda w: w * WORD_BYTES),  # any word
        st.integers(0, 7).map(lambda w: w * 128),  # bank 0, distinct words
        st.just(64),  # a broadcast word
    ),
    min_size=1,  # ``access`` answers an empty vector before any walk
    max_size=64,
)


class TestBankConflictMemo:
    """``LoadStoreUnit._shared`` answers from a memo keyed by the
    active-lane address bytes; what it answers is the walk's."""

    @given(lanes=_shared_lanes, atomic=st.booleans())
    @example(lanes=[0] * 32, atomic=False)  # broadcast: one transaction
    @example(lanes=[0] * 32, atomic=True)  # the same lanes, an atomic: 32
    @example(lanes=[0, 128, 0, 128], atomic=False)  # duplicates in a bank
    @example(lanes=[4], atomic=True)
    @settings(max_examples=100, deadline=None)
    def test_memo_answers_what_the_walk_answers(self, lanes, atomic):
        lsu, _ = _lsu()
        instr = ATOMS if atomic else LDS
        addrs = np.array(lanes, dtype=np.int64)
        want = lsu._shared_conflicts(addrs, atomic)  # the walk itself
        assert lsu.access(instr, addrs, now=0)[0] == want  # a miss
        assert lsu.access(instr, addrs.copy(), now=0)[0] == want  # a hit
        assert lsu._shared_conflicts(addrs, atomic) == want  # it kept no state

    def test_empty_access_never_reaches_the_memo(self):
        lsu, stats = _lsu()
        empty = np.array([], dtype=np.int64)
        assert lsu.access(LDS, empty, now=3) == (1, 3 + lsu.config.l1_latency)
        assert lsu._conflict_memo == {} and stats.shared_transactions == 0

    def test_load_and_atomic_on_the_same_addresses_share_no_answer(self):
        lsu, _ = _lsu()
        same_word = _lanes(np.zeros(16))
        assert lsu.access(LDS, same_word, now=0)[0] == 1  # broadcast
        assert lsu.access(ATOMS, same_word, now=0)[0] == 16  # serialised
        assert lsu.access(LDS, same_word, now=0)[0] == 1  # and back
        assert len(lsu._conflict_memo) == 2

    def test_a_hit_does_not_walk(self, monkeypatch):
        lsu, stats = _lsu()
        addrs = _lanes(np.arange(32) * 128)
        assert lsu.access(LDS, addrs, now=0)[0] == 32
        monkeypatch.setattr(
            LoadStoreUnit, "_shared_conflicts", lambda *a: pytest.fail("walked on a hit")
        )
        assert lsu.access(LDS, addrs.copy(), now=0)[0] == 32
        assert stats.shared_transactions == 64 and stats.memory_replays == 62

    def test_memo_stays_bounded_and_per_unit(self):
        from repro.timing import lsu as lsu_module

        lsu, _ = _lsu()
        other, _ = _lsu()
        # A stream of data-dependent vectors, as histogram's atomics are.
        for i in range(lsu_module._MEMO_LIMIT + 50):
            addrs = np.array([(i % 256) * 4, (i // 256) * 4], dtype=np.int64)
            want = lsu._shared_conflicts(addrs, True)
            assert lsu.access(ATOMS, addrs, now=0)[0] == want
            assert len(lsu._conflict_memo) <= lsu_module._MEMO_LIMIT
        # Cleared past the limit, not disabled: it filled up again.
        assert 0 < len(lsu._conflict_memo) <= 51
        assert other._conflict_memo == {}
