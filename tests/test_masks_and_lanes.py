"""Bit-mask helpers and lane-shuffle policies (with property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing import lanes, masks


class TestMasks:
    def test_full_mask(self):
        assert masks.full_mask(4) == 0b1111
        assert masks.full_mask(64) == (1 << 64) - 1

    def test_popcount_and_bits(self):
        assert masks.popcount(0b1011) == 3
        assert list(masks.bits(0b1011)) == [0, 1, 3]

    def test_roundtrip_bools(self):
        m = 0b1010_0110
        assert masks.bools_to_mask(masks.mask_to_bools(m, 8)) == m

    @given(st.integers(0, (1 << 16) - 1))
    def test_roundtrip_property(self, m):
        assert masks.bools_to_mask(masks.mask_to_bools(m, 16)) == m

    def test_bools_table_is_the_intern_and_clears_in_place(self, monkeypatch):
        """The executor binds a width's table once: ``mask_to_bools``
        fills that table, and its cap clears it without replacing it."""
        monkeypatch.setattr(masks, "_MEMO_LIMIT", 4)
        table = masks.bools_table(7)
        table.clear()
        rows = [masks.mask_to_bools(m, 7) for m in range(4)]
        assert all(table[m] is rows[m] for m in range(4))
        masks.mask_to_bools(4, 7)  # past the cap
        assert masks.bools_table(7) is table and list(table) == [4]

    def test_mask_str(self):
        assert masks.mask_str(0b0101, 4) == "X.X."

    def test_permute_mask(self):
        perm = (1, 0, 3, 2)
        assert masks.permute_mask(0b0001, perm) == 0b0010
        assert masks.permute_mask(0b0101, perm) == 0b1010

    @given(st.integers(0, 255))
    def test_permute_preserves_popcount(self, m):
        perm = (7, 6, 5, 4, 3, 2, 1, 0)
        assert masks.popcount(masks.permute_mask(m, perm)) == masks.popcount(m)


class TestWaves:
    def test_full_width_is_one_wave(self):
        assert masks.wave_count(masks.full_mask(32), 32, 32) == 1
        assert masks.wave_count(masks.full_mask(64), 64, 64) == 1

    def test_narrow_unit_streams_in_chunks(self):
        full = masks.full_mask(64)
        assert masks.wave_count(full, 32, 64) == 2
        assert masks.wave_count(full, 8, 64) == 8

    def test_empty_chunks_skipped(self):
        low_half = masks.full_mask(32)
        assert masks.wave_count(low_half, 32, 64) == 1
        one_lane = 1 << 63
        assert masks.wave_count(one_lane, 8, 64) == 1

    def test_empty_mask_costs_one_wave(self):
        assert masks.wave_count(0, 8, 64) == 1

    @given(st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_wave_bounds(self, m):
        w = masks.wave_count(m, 8, 64)
        assert 1 <= w <= 8


class TestLaneShuffles:
    @pytest.mark.parametrize("policy", lanes.POLICIES)
    @pytest.mark.parametrize("width", [4, 8, 16, 32, 64])
    def test_policies_are_permutations(self, policy, width):
        for wid in range(16):
            lanes.permutation(policy, wid, width, 16)  # raises if not

    @given(
        st.sampled_from(lanes.POLICIES),
        st.integers(0, 63),
        st.sampled_from([4, 8, 16, 32, 64]),
        st.integers(1, 64),
    )
    @settings(max_examples=200)
    def test_permutation_property(self, policy, wid, width, count):
        perm = lanes.permutation(policy, wid, width, count)
        assert sorted(perm) == list(range(width))

    def test_identity(self):
        assert lanes.permutation("identity", 3, 8, 4) == tuple(range(8))

    def test_mirror_odd(self):
        even = lanes.permutation("mirror_odd", 2, 8, 4)
        odd = lanes.permutation("mirror_odd", 3, 8, 4)
        assert even == tuple(range(8))
        assert odd == tuple(reversed(range(8)))

    def test_mirror_half(self):
        lo = lanes.permutation("mirror_half", 1, 8, 8)
        hi = lanes.permutation("mirror_half", 7, 8, 8)
        assert lo == tuple(range(8))
        assert hi == tuple(reversed(range(8)))

    def test_xor(self):
        perm = lanes.permutation("xor", 3, 8, 8)
        assert perm == tuple(t ^ 3 for t in range(8))

    def test_bitrev(self):
        assert lanes.bitrev(0b001, 3) == 0b100
        assert lanes.bitrev(0b110, 3) == 0b011
        assert lanes.bitrev(5, 1) == 1  # only low bit considered

    def test_xor_rev_differs_from_xor(self):
        a = lanes.permutation("xor", 1, 64, 16)
        b = lanes.permutation("xor_rev", 1, 64, 16)
        assert a != b

    def test_diagram_shape(self):
        art = lanes.diagram("identity", 4, 4)
        rows = art.splitlines()
        assert len(rows) == 4
        assert all("|" in r for r in rows)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            lanes.lane_of("bogus", 0, 0, 64, 16)

    def test_xor_rev_decorrelates_warps(self):
        # The same thread index maps to distinct lanes across warps —
        # the property that makes correlated imbalance SWI-friendly.
        lanes_for_tid0 = {
            lanes.lane_of("xor_rev", 0, wid, 64, 16) for wid in range(16)
        }
        assert len(lanes_for_tid0) == 16
