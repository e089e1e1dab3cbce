"""Property tests: divergence models under random operation storms.

Whatever sequence of branches, advances, exits, parks and releases a
scheduler throws at a divergence model, two invariants must hold at
every step (paper-critical — SBI's co-issue legality depends on them):

* live splits are pairwise disjoint;
* the union of live masks equals launch minus exited threads.

So ``live_mask()`` and ``done``, which read launch minus exited without
walking a split, must agree with the walk after every mutation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing.frontier import FrontierModel
from repro.timing.hct import SBIModel
from repro.timing.stack import StackModel

W = 16
FULL = (1 << W) - 1
PERM = tuple(range(W))
MAX_PC = 30


def _models():
    return {
        "stack": lambda: StackModel(FULL, PERM),
        "frontier": lambda: FrontierModel(FULL, PERM),
        "sbi": lambda: SBIModel(FULL, PERM, insert_delay=1),
        "sbi_slow_sideband": lambda: SBIModel(FULL, PERM, insert_delay=7),
    }


def _assert_live_view(model):
    """``live_mask()`` is the union of the splits, and ``done`` means
    no split is left."""
    splits = list(model.all_splits())
    union = 0
    for split in splits:
        union |= split.mask
    assert model.live_mask() == union
    assert model.done == (not splits)


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(5, 40))):
        kind = draw(
            st.sampled_from(["branch", "advance", "exit", "park_cycle"])
        )
        ops.append(
            (
                kind,
                draw(st.integers(0, FULL)),  # mask material
                draw(st.integers(0, MAX_PC)),  # target material
                draw(st.booleans()),  # pick primary or secondary hot
            )
        )
    return ops


class TestInvariantStorm:
    @pytest.mark.parametrize("name", sorted(_models()))
    @given(ops=op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, name, ops):
        model = _models()[name]()
        now = 0
        for kind, mask_bits, target, pick_second in ops:
            now += 1
            hot = model.hot_splits(now)
            if not hot:
                model.unpark_all(now)
                hot = model.hot_splits(now)
                if not hot:
                    break
            split = hot[1] if (pick_second and len(hot) > 1) else hot[0]
            if kind == "branch":
                taken = split.mask & mask_bits
                # The stack model needs a reconvergence pc above the
                # branch; use the maximum pc as a conservative join.
                model.branch(split, taken, target, reconv_pc=MAX_PC + 1, now=now)
            elif kind == "advance":
                model.advance(split, now)
            elif kind == "exit":
                exit_mask = split.mask & mask_bits
                if exit_mask:
                    model.exit_threads(split, exit_mask, now)
            else:  # park everything runnable, then release
                model.park(split, now)
                model.unpark_all(now)
            model.check_invariants()
            _assert_live_view(model)
        model.check_invariants()
        _assert_live_view(model)

    @pytest.mark.parametrize("name", sorted(_models()))
    @given(ops=op_sequences())
    @settings(max_examples=30, deadline=None)
    def test_hot_splits_always_live_and_sorted(self, name, ops):
        model = _models()[name]()
        now = 0
        for kind, mask_bits, target, pick_second in ops:
            now += 1
            hot = model.hot_splits(now)
            if not hot:
                break
            pcs = [s.pc for s in hot]
            assert pcs == sorted(pcs), "hot contexts must be PC-ordered"
            assert all(s.mask for s in hot), "hot contexts must be live"
            split = hot[1] if (pick_second and len(hot) > 1) else hot[0]
            if kind == "branch":
                model.branch(
                    split, split.mask & mask_bits, target, reconv_pc=MAX_PC + 1, now=now
                )
            elif kind == "advance":
                model.advance(split, now)
            elif kind == "exit" and (split.mask & mask_bits):
                model.exit_threads(split, split.mask & mask_bits, now)

    @given(ops=op_sequences())
    @settings(max_examples=30, deadline=None)
    def test_sbi_hot_capacity_bound(self, ops):
        model = SBIModel(FULL, PERM, insert_delay=2)
        now = 0
        for kind, mask_bits, target, pick_second in ops:
            now += 1
            hot = model.hot_splits(now)
            assert len(hot) <= 2, "HCT exposes at most two contexts"
            if not hot:
                break
            split = hot[1] if (pick_second and len(hot) > 1) else hot[0]
            if kind == "branch":
                model.branch(
                    split, split.mask & mask_bits, target, reconv_pc=None, now=now
                )
            elif kind == "advance":
                model.advance(split, now)
            elif kind == "exit" and (split.mask & mask_bits):
                model.exit_threads(split, split.mask & mask_bits, now)

    @given(ops=op_sequences())
    @settings(max_examples=30, deadline=None)
    def test_merges_never_lose_threads(self, ops):
        model = FrontierModel(FULL, PERM)
        now = 0
        for kind, mask_bits, target, _ in ops:
            now += 1
            hot = model.hot_splits(now)
            if not hot:
                break
            split = hot[0]
            before = model.live_mask() | model.exited_mask
            if kind == "branch":
                model.branch(
                    split, split.mask & mask_bits, target, reconv_pc=None, now=now
                )
            elif kind == "advance":
                model.advance(split, now)
            elif kind == "exit" and (split.mask & mask_bits):
                model.exit_threads(split, split.mask & mask_bits, now)
            after = model.live_mask() | model.exited_mask
            assert after == before == FULL


# ----------------------------------------------------------------------
# The settle fast-out against the unabridged settle
# ----------------------------------------------------------------------

_NEVER = 1 << 62


class UnabridgedSettleModel(SBIModel):
    """The oracle: ``SBIModel`` whose ``_settle`` always takes the long
    way round — pool, sort, merge walk, list compare — as every settle
    did before the fast-out, and never serves ``_hot_cache``."""

    __slots__ = ()

    def _settle(self, now):
        old_hot = self.hot
        pool = list(old_hot)
        settled_cold = []
        for s in self.cold:
            if s.ready_at <= now:
                pool.append(s)
            else:
                settled_cold.append(s)
        pool.sort(key=lambda s: s.pc)
        merged = []
        merges_before = self.merge_count
        for s in pool:
            last = merged[-1] if merged else None
            if (
                last is not None
                and last.pc == s.pc
                and not last.pending
                and not s.pending
            ):
                last.set_mask(last.mask | s.mask)
                last.redirect_ready_at = max(
                    last.redirect_ready_at, s.redirect_ready_at
                )
                s.set_mask(0)
                self.merge_count += 1
            else:
                merged.append(s)
        self.hot = merged[:2]
        self.cold = merged[2:] + settled_cold
        if self.merge_count != merges_before or self.hot != old_hot:
            self.version += 1
            self.slot_version += 1
            if self.on_change is not None:
                self.on_change()
        self._dirty = False
        wake = None
        for s in self.cold:
            r = s.ready_at
            if r > now and (wake is None or r < wake):
                wake = r
        self._settle_wake = wake if wake is not None else _NEVER
        self._hot_cache = None


def _context(split):
    return (
        split.pc, split.mask, split.lane_mask, split.parked, split.pending,
        split.ready_at, split.redirect_ready_at,
    )


def _observable(model, changes):
    return dict(
        hot=[_context(s) for s in model.hot],
        cold=[_context(s) for s in model.cold],
        parked=[_context(s) for s in model.parked],
        version=model.version,
        slot_version=model.slot_version,
        merge_count=model.merge_count,
        settle_wake=model._settle_wake,
        exited=model.exited_mask,
        parked_threads=model.parked_threads,
        on_change_calls=changes[0],
    )


@st.composite
def settle_storms(draw):
    kinds = st.sampled_from(
        ["branch", "advance", "advance", "exit", "park", "unpark", "clock",
         "freeze", "thaw"]
    )
    return [
        (
            draw(kinds),
            draw(st.integers(0, FULL)),  # mask material
            draw(st.integers(0, 12)),  # branch target / clock advance
            draw(st.booleans()),  # CPC1 or CPC2
        )
        for _ in range(draw(st.integers(5, 60)))
    ]


class TestSettleFastOut:
    """``SBIModel._settle`` returns at once when there is nothing to
    sort, promote or merge.  Drive the model and the oracle above with
    the same storm — what a scheduler does to a warp, frozen picks and
    read-path clock advances included — and they must agree on every
    observable after every step."""

    @pytest.mark.parametrize("insert_delay", [0, 2, 7])
    @given(ops=settle_storms())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_unabridged_settle(self, insert_delay, ops):
        models, counters = [], []
        for cls in (SBIModel, UnabridgedSettleModel):
            model = cls(FULL, PERM, insert_delay=insert_delay)
            changes = [0]
            model.on_change = lambda changes=changes: changes.__setitem__(0, changes[0] + 1)
            models.append(model)
            counters.append(changes)
        now = 0
        for kind, mask_bits, number, second in ops:
            for model in models:
                hot = model.hot_splits(now)
                split = None
                if hot:
                    split = hot[1] if (second and len(hot) > 1) else hot[0]
                if kind == "clock":
                    pass  # below: the read path at a later cycle
                elif kind == "unpark":
                    model.unpark_all(now)
                elif kind == "thaw":
                    # A cascaded pick voided: unfreeze, then _touch().
                    for s in model.all_splits():
                        s.pending = False
                    model._touch()
                elif split is None or split.pending:
                    pass
                elif kind == "freeze":
                    split.pending = True
                elif kind == "branch":
                    split.redirect_ready_at = now + 2
                    model.branch(split, split.mask & mask_bits, number, None, now)
                elif kind == "advance":
                    model.advance(split, now)
                elif kind == "exit":
                    # As SM.issue does it: retire, then step what is left.
                    model.exit_threads(split, split.mask & mask_bits, now)
                    if split.mask:
                        model.advance(split, now)
                elif kind == "park":
                    model.park(split, now)
            if kind == "clock":
                now += number
            fast, oracle = models
            assert [_context(s) for s in fast.hot_splits(now)] == [
                _context(s) for s in oracle.hot_splits(now)
            ]
            if fast._hot_cache is not None:
                assert fast._hot_cache is fast.hot
            assert _observable(fast, counters[0]) == _observable(oracle, counters[1])
            fast.check_invariants()
            oracle.check_invariants()
