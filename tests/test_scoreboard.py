"""Scoreboards: hazard detection, capacity, and the dependency matrix.

Includes a re-enactment of the paper's Figure 6 divergence-convergence
graph and a property test showing the matrix scoreboard is a
conservative superset of the exact mask scoreboard.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Instruction, Op, imm, reg
from repro.timing.scoreboard import (
    MaskScoreboard,
    MatrixScoreboard,
    WarpScoreboard,
    build_transition,
    make_scoreboard,
)


def mov(dst, src):
    return Instruction(Op.MOV, dst=dst, srcs=(reg(src),))


def movi(dst):
    return Instruction(Op.MOV, dst=dst, srcs=(imm(0),))


class TestFactory:
    @pytest.mark.parametrize("kind", ["warp", "mask", "matrix"])
    def test_make(self, kind):
        sb = make_scoreboard(kind, 6)
        assert sb.kind == kind and sb.capacity == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scoreboard("bogus", 6)


class TestWarpScoreboard:
    def test_raw_hazard(self):
        sb = WarpScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        assert not sb.can_issue(mov(2, 1), 0b1111, 0)

    def test_waw_hazard(self):
        sb = WarpScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        assert not sb.can_issue(movi(1), 0b1111, 0)

    def test_independent_ok(self):
        sb = WarpScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        assert sb.can_issue(mov(3, 2), 0b1111, 0)

    def test_warp_granular_false_dependency(self):
        sb = WarpScoreboard(6)
        sb.add(movi(1), 0b0011, 0)
        # Disjoint threads still conflict: warp-granular.
        assert not sb.can_issue(mov(2, 1), 0b1100, 1)

    def test_capacity(self):
        sb = WarpScoreboard(2)
        sb.add(movi(1), 1, 0)
        sb.add(movi(2), 1, 0)
        assert not sb.can_issue(movi(3), 1, 0)  # full: no entry for r3
        assert sb.can_issue(Instruction(Op.BRA, target=0), 1, 0)  # no dst

    def test_release(self):
        sb = WarpScoreboard(6)
        e = sb.add(movi(1), 1, 0)
        sb.release(e)
        assert sb.can_issue(mov(2, 1), 1, 0)
        sb.release(e)  # double release is a no-op
        assert len(sb) == 0


class TestMaskScoreboard:
    def test_disjoint_threads_independent(self):
        sb = MaskScoreboard(6)
        sb.add(movi(1), 0b0011, 0)
        assert sb.can_issue(mov(2, 1), 0b1100, 1)
        assert not sb.can_issue(mov(2, 1), 0b0110, 1)


class TestMatrixScoreboard:
    def test_same_slot_dependency(self):
        sb = MatrixScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        assert not sb.can_issue(mov(2, 1), 0b1111, 0)
        assert sb.can_issue(mov(2, 1), 0b1111, 1)  # other slot: no deps yet

    def test_transition_moves_dependency(self):
        sb = MatrixScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        # All threads of slot 0 move to slot 1 (e.g. CPC swap).
        t = build_transition((0b1111, 0, 0), (0, 0b1111, 0))
        sb.on_transition(t)
        assert sb.can_issue(mov(2, 1), 0b1111, 0)
        assert not sb.can_issue(mov(2, 1), 0b1111, 1)

    def test_divergence_spreads_dependency(self):
        sb = MatrixScoreboard(6)
        sb.add(movi(1), 0b1111, 0)
        # Slot 0 splits into slots 0 and 1.
        t = build_transition((0b1111, 0, 0), (0b0011, 0b1100, 0))
        sb.on_transition(t)
        assert not sb.can_issue(mov(2, 1), 0b0011, 0)
        assert not sb.can_issue(mov(2, 1), 0b1100, 1)

    def test_figure6_chain(self):
        """The paper's Figure 6 example: dependencies track threads
        through divergence and reconvergence via matrix products."""
        sb = MatrixScoreboard(6)
        # t-3: instruction writes r1 from the primary split {0,1,2,3}.
        e = sb.add(movi(1), 0b1111, 0)
        # Divergence: {0,1} stay primary, {2,3} to secondary.
        sb.on_transition(build_transition((0b1111, 0, 0), (0b0011, 0b1100, 0)))
        assert e.row == (True, True, False)
        # Secondary spills to the heap (slot 2).
        sb.on_transition(build_transition((0b0011, 0b1100, 0), (0b0011, 0, 0b1100)))
        assert e.row == (True, False, True)
        # Reconvergence: everything merges back into the primary.
        sb.on_transition(build_transition((0b0011, 0, 0b1100), (0b1111, 0, 0)))
        assert e.row == (True, False, False)

    def test_conservative_after_merge_split(self):
        """After merge-then-split the matrix may flag threads that the
        exact mask tracking would clear — conservative, never unsafe."""
        mask_sb = MaskScoreboard(6)
        mat_sb = MatrixScoreboard(6)
        mask_sb.add(movi(1), 0b0011, 0)
        mat_sb.add(movi(1), 0b0011, 0)
        # Merge {0,1} and {2,3}, then split again as {0,2} / {1,3}.
        mat_sb.on_transition(build_transition((0b0011, 0b1100, 0), (0b1111, 0, 0)))
        mat_sb.on_transition(build_transition((0b1111, 0, 0), (0b0101, 0b1010, 0)))
        # Exact: split {1,3} & mask {0,1} overlap via thread 1 => dep.
        assert not mask_sb.can_issue(mov(2, 1), 0b1010, 1)
        # Matrix says both slots depend (conservative superset).
        assert not mat_sb.can_issue(mov(2, 1), 0b0101, 0)
        assert not mat_sb.can_issue(mov(2, 1), 0b1010, 1)


@st.composite
def slot_histories(draw):
    """Random warp-slot mask evolutions over 8 threads, 3 slots."""
    steps = draw(st.integers(1, 6))
    history = []
    threads = list(range(8))
    state = {t: 0 for t in threads}  # every thread starts in slot 0
    history.append(state.copy())
    for _ in range(steps):
        new = {t: draw(st.integers(0, 2)) for t in threads}
        history.append(new)
    return history


def _masks_of(state):
    out = [0, 0, 0]
    for t, slot in state.items():
        out[slot] |= 1 << t
    return tuple(out)


class TestConservativeProperty:
    @given(slot_histories(), st.integers(0, 2))
    @settings(max_examples=120, deadline=None)
    def test_matrix_superset_of_exact(self, history, query_slot):
        """Matrix dependencies always include the exact thread-tracking
        dependencies, regardless of the divergence history."""
        mat = MatrixScoreboard(6)
        entry_mask = _masks_of(history[0])[0]
        mat.add(movi(1), entry_mask, 0)
        for before, after in zip(history, history[1:]):
            mat.on_transition(build_transition(_masks_of(before), _masks_of(after)))
        final = _masks_of(history[-1])
        query_mask = final[query_slot]
        # Exact dependency: query threads intersect the entry threads.
        exact_dep = (query_mask & entry_mask) != 0
        matrix_dep = not mat.can_issue(mov(2, 1), query_mask, query_slot)
        if exact_dep and query_mask:
            assert matrix_dep, "matrix scoreboard missed a true dependency"


class TestMatrixReadPathGap:
    """ROADMAP item 3's known gap: a settle on the SBI read path (a cold
    context leaving the sideband sorter, promoted into the hot pair by
    whoever reads it first) moves threads between context slots with no
    ``on_transition`` — the SM feeds the matrix scoreboard only the moves
    its own issue and barrier release make.  The next issue of the warp
    then takes the settled masks as its "before", and the move is lost.

    The golden figures suite runs such cycles: ``bench_ablations``'s
    ``sbi/cct_insert_delay=8`` cell on eigenvalues @tiny has four.  The
    fix moves goldens; until it lands this stays a strict xfail."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: "
                       "read-path settles are not fed to the matrix scoreboard")
    def test_the_scoreboard_hears_of_every_slot_move(self):
        from unittest import mock

        from repro.core import presets
        from repro.core.simulator import simulate
        from repro.core.sm import StreamingMultiprocessor
        from repro.workloads import get_workload

        unheard = []
        inner = StreamingMultiprocessor.issue

        def issue(self, warp, slot, split, entry, now, origin, group):
            # ``slot_masks`` is what the rows refer to, valid while
            # ``slots_seen`` is the model's ``slot_version``: a move the
            # SM did not make leaves them stale, with entries riding on them.
            model = warp.model
            if warp.scoreboard.entries and warp.slots_seen != model.slot_version:
                now_masks = model.slot_masks(now)
                if now_masks != warp.slot_masks:
                    unheard.append((now, warp.wid, warp.slot_masks, now_masks))
            return inner(self, warp, slot, split, entry, now, origin, group)

        config = presets.sbi(cct_insert_delay=8)
        assert config.scoreboard_kind == "matrix"
        inst = get_workload("eigenvalues", "tiny")
        with mock.patch.object(StreamingMultiprocessor, "issue", issue):
            simulate(inst.kernel, inst.memory, config)
        assert not unheard, "(cycle, warp, rows' masks, model's masks): %s" % unheard[:2]
