"""Stack, frontier, DWR and HCT/CCT divergence models, and the split
life cycle they share (``DivergenceModel``)."""

import pytest

from repro.timing.divergence import Split
from repro.timing.dwr import DWRModel
from repro.timing.frontier import FrontierModel
from repro.timing.hct import SBIModel
from repro.timing.stack import StackModel

W = 8
FULL = (1 << W) - 1
PERM = tuple(range(W))


def models():
    return [
        StackModel(FULL, PERM),
        FrontierModel(FULL, PERM),
        SBIModel(FULL, PERM, insert_delay=0),
    ]


class TestCommonBehaviour:
    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_initial_state(self, model):
        hot = model.hot_splits(0)
        assert len(hot) == 1
        assert hot[0].pc == 0 and hot[0].mask == FULL
        model.check_invariants()

    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_uniform_branch(self, model):
        split = model.hot_splits(0)[0]
        diverged = model.branch(split, FULL, 5, reconv_pc=9, now=0)
        assert not diverged
        assert model.hot_splits(0)[0].pc == 5
        model.check_invariants()

    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_divergent_branch_partitions_mask(self, model):
        split = model.hot_splits(0)[0]
        taken = 0b00001111
        diverged = model.branch(split, taken, 5, reconv_pc=9, now=0)
        assert diverged
        model.check_invariants()
        live = 0
        for s in model.all_splits():
            live |= s.mask
        assert live == FULL

    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_exit_removes_threads(self, model):
        split = model.hot_splits(0)[0]
        model.exit_threads(split, 0b1111, now=0)
        model.check_invariants()
        assert model.live_mask() == 0b11110000

    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_full_exit_finishes_warp(self, model):
        split = model.hot_splits(0)[0]
        model.exit_threads(split, FULL, now=0)
        assert model.done

    @pytest.mark.parametrize("model", models(), ids=["stack", "frontier", "sbi"])
    def test_park_unpark_roundtrip(self, model):
        split = model.hot_splits(0)[0]
        model.park(split, now=0)
        assert model.hot_splits(0) == []
        model.unpark_all(now=1)
        hot = model.hot_splits(1)
        assert len(hot) == 1 and hot[0].pc == 1
        model.check_invariants()


class TestStack:
    def test_reconverges_at_ipdom(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=9, now=0)
        # Taken path runs 5..8, pops at 9.
        top = m.hot_splits(0)[0]
        assert top.pc == 5 and top.mask == 0b1111
        for _ in range(4):
            m.advance(top, 0)
        # Now the fall-through path (pc 1) is on top.
        top = m.hot_splits(0)[0]
        assert top.pc == 1 and top.mask == 0b11110000
        for _ in range(8):
            m.advance(top, 0)
        top = m.hot_splits(0)[0]
        assert top.pc == 9 and top.mask == FULL
        assert m.merge_count >= 2

    def test_serialises_paths(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=9, now=0)
        assert len(m.hot_splits(0)) == 1  # only the top runs

    def test_empty_taken_path_merges_immediately(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        # if-without-else: taken target == reconvergence point.
        m.branch(split, 0b1111, 9, reconv_pc=9, now=0)
        top = m.hot_splits(0)[0]
        assert top.pc == 1 and top.mask == 0b11110000

    def test_exit_within_divergent_region(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=9, now=0)
        top = m.hot_splits(0)[0]
        m.exit_threads(top, 0b1111, now=0)
        m.check_invariants()
        assert m.live_mask() == 0b11110000

    def test_unstructured_branch_without_reconv(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        top = m.hot_splits(0)[0]
        m.exit_threads(top, top.mask, now=0)
        top = m.hot_splits(0)[0]
        assert top.mask == 0b11110000


class TestFrontier:
    def test_min_pc_runs(self):
        m = FrontierModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        assert m.hot_splits(0)[0].pc == 1  # fall-through has lower pc

    def test_equal_pc_merges(self):
        m = FrontierModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 2, reconv_pc=None, now=0)
        lagging = m.hot_splits(0)[0]
        assert lagging.pc == 1
        m.advance(lagging, 0)
        hot = m.hot_splits(0)
        assert len(list(m.all_splits())) == 1
        assert hot[0].mask == FULL
        assert m.merge_count == 1

    def test_pending_split_not_merged(self):
        m = FrontierModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 2, reconv_pc=None, now=0)
        target = next(s for s in m.splits if s.pc == 2)
        target.pending = True
        lagging = m.hot_splits(0)[0]
        m.advance(lagging, 0)
        assert len(m.splits) == 2  # merge deferred while pending

    def test_merged_split_marked_dead(self):
        m = FrontierModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 2, reconv_pc=None, now=0)
        lagging = m.hot_splits(0)[0]
        m.advance(lagging, 0)
        dead = [s for s in (split, lagging) if s.mask == 0]
        assert len(dead) == 1


class TestSBIHeap:
    def test_two_hot_contexts(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        hot = m.hot_splits(0)
        assert len(hot) == 2
        assert hot[0].pc == 1 and hot[1].pc == 5  # CPC1 < CPC2

    def test_third_context_spills_to_cct(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]  # pc 1, mask 0b11110000
        m.branch(cpc1, 0b00110000, 3, reconv_pc=None, now=0)
        hot = m.hot_splits(0)
        assert len(hot) == 2
        assert [s.pc for s in hot] == [2, 3]  # minimum two contexts
        assert len(m.cold) == 1 and m.cold[0].pc == 5

    def test_cct_refills_hot(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]
        m.branch(cpc1, 0b00110000, 3, reconv_pc=None, now=0)
        # Exit the minimum split: the cold context must come back.
        cpc1 = m.hot_splits(0)[0]
        m.exit_threads(cpc1, cpc1.mask, now=0)
        hot = m.hot_splits(0)
        assert len(hot) == 2
        assert [s.pc for s in hot] == [3, 5]
        assert not m.cold

    def test_sideband_delay_gates_promotion(self):
        m = SBIModel(FULL, PERM, insert_delay=5)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]
        m.branch(cpc1, 0b00110000, 3, reconv_pc=None, now=0)
        spilled = m.cold[0]
        assert spilled.ready_at == 5
        cpc1 = m.hot_splits(0)[0]
        m.exit_threads(cpc1, cpc1.mask, now=0)
        assert len(m.hot_splits(0)) == 1  # not yet sorted in
        assert len(m.hot_splits(5)) == 2  # promoted once ready

    def test_sideband_promotion_bumps_version(self):
        """A cold context waking into the hot pair is a state change
        the version counter must report, even without a merge — the
        SM's fetch/stall/wake memos key on it."""
        m = SBIModel(FULL, PERM, insert_delay=5)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]
        m.branch(cpc1, 0b00110000, 3, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]
        m.exit_threads(cpc1, cpc1.mask, now=0)
        assert len(m.hot_splits(0)) == 1
        before = m.version
        assert len(m.hot_splits(5)) == 2  # promoted once ready
        assert m.version != before
        # A settle that changes nothing must not churn the counter.
        after = m.version
        m.hot_splits(6)
        assert m.version == after

    def test_equal_pc_hot_merge(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 2, reconv_pc=None, now=0)
        lagging = m.hot_splits(0)[0]
        m.advance(lagging, 0)
        hot = m.hot_splits(0)
        assert len(hot) == 1 and hot[0].mask == FULL
        assert m.merge_count == 1

    def test_cold_merges_through_settle(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        # Two divergences targeting the same PC merge in the heap.
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc1 = m.hot_splits(0)[0]  # pc 1, mask 0b11110000
        m.branch(cpc1, 0b00110000, 5, reconv_pc=None, now=0)
        pcs = sorted(s.pc for s in m.all_splits())
        masks = {s.pc: s.mask for s in m.all_splits()}
        assert pcs == [2, 5]
        assert masks[5] == 0b00111111
        assert m.merge_count == 1

    def test_unpark_rejoins_heap(self):
        m = SBIModel(FULL, PERM, insert_delay=0)
        split = m.hot_splits(0)[0]
        m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        cpc2 = m.hot_splits(0)[1]
        m.park(cpc2, now=0)
        assert len(m.hot_splits(0)) == 1
        m.unpark_all(now=1)
        assert len(m.hot_splits(1)) == 2
        m.check_invariants()


# ----------------------------------------------------------------------
# The split life cycle: one home in the base class
# ----------------------------------------------------------------------

KINDS = {
    "stack": StackModel,
    "frontier": FrontierModel,
    "dwr": DWRModel,
    "sbi": SBIModel,
}


class TestSplitOff:
    """``DivergenceModel._split_off``: a branch's outcome on one split,
    before the model places anything."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("taken,pc", [(FULL, 5), (0, 1)], ids=["taken", "not_taken"])
    def test_a_uniform_branch_moves_the_pc(self, kind, taken, pc):
        model = KINDS[kind](FULL, PERM)
        split = model.hot_splits(0)[0]
        split.redirect_ready_at = 7
        assert model._split_off(split, taken, 5) is None
        assert (split.pc, split.mask, split.redirect_ready_at) == (pc, FULL, 7)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_divergent_branch_returns_the_fall_through_sibling(self, kind):
        model = KINDS[kind](FULL, tuple(reversed(PERM)))  # lane = 7 - thread
        split = model.hot_splits(0)[0]
        split.redirect_ready_at = 7
        slots = model.slot_version
        sibling = model._split_off(split, 0b1111 | ~FULL, 5)
        assert (sibling.pc, sibling.mask, sibling.redirect_ready_at) == (1, 0b11110000, 7)
        assert (split.pc, split.mask, split.redirect_ready_at) == (5, 0b1111, 7)
        assert (sibling.lane_mask, split.lane_mask) == (0b1111, 0b11110000)
        assert model.slot_version == slots + 1  # touched: the views are stale
        assert all(s is not sibling for s in model.all_splits())  # not placed yet

    def test_the_stack_keeps_the_branched_split_as_its_taken_context(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        assert m.branch(split, 0b1111, 5, reconv_pc=9, now=0)
        placeholder, ft, taken = m.stack
        assert taken is split and m.hot_splits(0) == [split]
        assert (split.pc, split.mask, split.rpc) == (5, 0b1111, 9)
        assert (ft.pc, ft.mask, ft.rpc) == (1, 0b11110000, 9)
        assert (placeholder.pc, placeholder.mask, placeholder.rpc) == (9, FULL, None)
        # Nested: the inner placeholder waits with the outer rpc.
        assert m.branch(split, 0b11, 6, reconv_pc=8, now=0)
        inner, inner_ft, inner_taken = m.stack[2:]
        assert inner_taken is split
        assert (inner.pc, inner.mask, inner.rpc) == (8, 0b1111, 9)
        assert (inner_ft.pc, inner_ft.mask, inner_ft.rpc) == (6, 0b1100, 8)
        m.check_invariants()

    def test_the_stack_without_a_reconvergence_point_pushes_no_placeholder(self):
        m = StackModel(FULL, PERM)
        split = m.hot_splits(0)[0]
        assert m.branch(split, 0b1111, 5, reconv_pc=None, now=0)
        ft, taken = m.stack
        assert taken is split and ft.rpc is None and split.rpc is None


class TestFold:
    """``DivergenceModel._fold``: a merge keeps the later redirect
    gate, leaves the absorbed split empty and counts once."""

    @pytest.mark.parametrize("kind", ["frontier", "dwr", "sbi"])
    @pytest.mark.parametrize("gates", [(3, 9), (9, 3)], ids=["later_absorbed", "later_kept"])
    def test_a_fold(self, kind, gates):
        model = KINDS[kind](FULL, PERM)
        into, split = Split(4, 0b0011, None), Split(4, 0b1100, None)
        into.redirect_ready_at, split.redirect_ready_at = gates
        model._fold(into, split)
        assert (into.mask, into.lane_mask, into.redirect_ready_at) == (0b1111, 0b1111, 9)
        assert (split.mask, split.lane_mask) == (0, 0)
        assert model.merge_count == 1

    @pytest.mark.parametrize("kind", ["frontier", "dwr", "sbi"])
    def test_meeting_splits_fold_through_it(self, kind):
        model = KINDS[kind](FULL, PERM)
        split = model.hot_splits(0)[0]
        split.redirect_ready_at = 3
        model.branch(split, 0b1111, 2, reconv_pc=None, now=0)
        lagging = model.hot_splits(0)[0]
        lagging.redirect_ready_at = 6
        model.advance(lagging, 0)
        (survivor,) = model.all_splits()
        dead = split if survivor is lagging else lagging
        assert (survivor.mask, survivor.redirect_ready_at) == (FULL, 6)
        assert dead.mask == 0 and model.merge_count == 1


class TestBarrierBookkeeping:
    """``park`` and ``_release`` in the base: every model counts the
    parked threads and resumes them at PC + 1."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_park_counts_and_release_resumes(self, kind):
        model = KINDS[kind](FULL, PERM)
        split = model.hot_splits(0)[0]
        model.exit_threads(split, 0b1, 0)
        model.park(split, 0)
        assert split.parked and model.parked_threads == 7
        model.unpark_all(1)
        assert not split.parked and model.parked_threads == 0
        assert [(s.pc, s.mask) for s in model.hot_splits(1)] == [(1, 0b11111110)]
        model.check_invariants()
