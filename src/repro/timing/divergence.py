"""Warp-split representation and the divergence-model interface.

A *warp-split* is a (PC, activity-mask) pair: a maximal group of
threads of one warp executing in lockstep.  The reconvergence models
of the reproduction order and place splits differently:

* :class:`repro.timing.stack.StackModel` — baseline IPDOM stack, one
  runnable split (the top of stack).
* :class:`repro.timing.frontier.FrontierModel` — thread-frontier
  scheduling: the minimum-PC split is runnable (Warp64 reference and
  the SWI configuration); :class:`repro.timing.dwr.DWRModel` slices it
  into sub-warps under divergence.
* :class:`repro.timing.hct.SBIModel` — the paper's HCT/CCT heap with
  *two* runnable splits (``CPC1``/``CPC2``) for simultaneous branch
  interweaving.

The base class owns the split life cycle (split-off, merge, exit, barrier
park and release); each model owns only its ordering and placement.
All models speak the same interface so the SM pipeline and schedulers
are mode-agnostic; the matrix scoreboard observes slot transitions
through :meth:`DivergenceModel.slot_masks`.  A warp's live threads are
known here once, for every model: the launch mask minus the exited
threads (:meth:`DivergenceModel.live_mask`); that the splits partition
them is the models' invariant (:meth:`DivergenceModel.check_invariants`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.timing.lanes import identity
from repro.timing.masks import permute_mask, popcount

#: "No scheduled wake" sentinel: the models' settle wake, and the
#: retry cycle of a scheduler or fetch verdict only a wake site can end.
_NEVER = 1 << 62

#: Sort key of the PC-ordered models.
by_pc = attrgetter("pc")


class Split:
    """One warp-split: PC, thread mask, and scheduling state."""

    __slots__ = (
        "pc",
        "mask",
        "lane_mask",
        "rpc",
        "parked",
        "pending",
        "redirect_ready_at",
        "ready_at",
        "_perm",
    )

    def __init__(
        self,
        pc: int,
        mask: int,
        perm: Optional[Sequence[int]],
        rpc: Optional[int] = None,
    ) -> None:
        self.pc = pc
        self.mask = mask
        #: ``mask`` in physical-lane space (after the warp's shuffle),
        #: kept in step by :meth:`set_mask`.  ``perm`` is None for the
        #: identity shuffle (see :attr:`DivergenceModel.lane_perm`):
        #: then the two are one mask.
        self.lane_mask = mask if perm is None else permute_mask(mask, perm)
        self.rpc = rpc  # reconvergence PC (stack model only)
        self.parked = False
        self.pending = False  # picked by a cascaded scheduler, not yet issued
        self.redirect_ready_at = 0  # fetch gate after a branch resolves
        self.ready_at = 0  # CCT sideband-sorter availability
        self._perm = perm

    def set_mask(self, mask: int) -> None:
        self.mask = mask
        perm = self._perm
        self.lane_mask = mask if perm is None else permute_mask(mask, perm)

    @property
    def active_threads(self) -> int:
        return popcount(self.mask)

    def __repr__(self) -> str:
        flags = "".join(
            f for f, on in (("P", self.parked), ("*", self.pending)) if on
        )
        return "Split(pc=%d, mask=%#x%s)" % (self.pc, self.mask, flags)


class DivergenceModel:
    """Common interface and split life cycle of the models."""

    __slots__ = (
        "launch_mask",
        "lane_perm",
        "merge_count",
        "exited_mask",
        "version",
        "slot_version",
        "parked_threads",
        "_hot_cache",
        "on_change",
        "_settle_wake",
    )

    #: Number of simultaneously runnable splits the model exposes
    #: (class-level: a property of the model kind, never per instance).
    #: The pipeline reads it at launch: it is each warp's buffer ways
    #: (``TimingWarp.ibuf``), and a second one is what SBI co-issues.
    hot_capacity = 1

    @classmethod
    def for_config(
        cls, config, launch_mask: int, lane_perm: Sequence[int]
    ) -> "DivergenceModel":
        """The model of one warp launched under ``config`` — how the
        classes in :data:`repro.core.policy.DIVERGENCE` are built.
        Models with configuration knobs override it."""
        return cls(launch_mask, lane_perm)

    def __init__(self, launch_mask: int, lane_perm: Sequence[int]) -> None:
        self.launch_mask = launch_mask
        #: The warp's thread -> lane permutation, bound once per warp
        #: for the splits it makes: None when it is the identity (the
        #: ``identity`` shuffle, so ``baseline``, ``sbi``, ``warp64``),
        #: whose splits then skip :func:`permute_mask` altogether.
        self.lane_perm: Optional[Sequence[int]] = (
            None if tuple(lane_perm) == identity(len(lane_perm)) else lane_perm
        )
        self.merge_count = 0
        self.exited_mask = 0
        #: Mutation counter: bumped by every state change so readers
        #: (the SM's wake-cycle cache) can memoize derived views
        #: between mutations.
        self.version = 0
        #: Bumped with ``version`` by every change that can move a
        #: thread between context slots (:meth:`_touch`), not by one
        #: that only moves a PC (:meth:`_moved`): the SM recomputes
        #: :meth:`slot_masks` only when it differs from what it saw.
        self.slot_version = 0
        #: Threads currently suspended at a CTA barrier (fast path for
        #: StreamingMultiprocessor._check_barrier).
        self.parked_threads = 0
        #: Memoized :meth:`hot_splits` result, or None when it must be
        #: recomputed.  Models serve reads straight from it whenever
        #: the answer cannot depend on the cycle asked about (SBI
        #: leaves it None while a context sits in the sideband sorter:
        #: its settle then runs on the read path).  Schedulers and the
        #: fetch engine read this attribute directly.
        self._hot_cache: Optional[List[Split]] = None
        #: Change-notification hook, bound at warp launch to
        #: :meth:`TimingWarp.wake` and fired on every version bump:
        #: the one wake an issued instruction gives its warp.
        self.on_change: Optional[Callable[[], None]] = None
        #: Earliest future cycle the model can change state *on its
        #: own* (SBI's sideband-sorter promotions on the read path);
        #: ``_NEVER`` for purely mutation-driven models.  Schedulers
        #: and the fetch engine cap every verdict's timed wake here.
        self._settle_wake = _NEVER

    def _touch(self) -> None:
        """Invalidate every memoized view after a state change."""
        self.version += 1
        self.slot_version += 1
        self._hot_cache = None
        cb = self.on_change
        if cb is not None:
            cb()

    def _moved(self) -> None:
        """A split's PC moved and nothing else: membership, masks and
        priority order stand, so ``_hot_cache`` and slot view hold."""
        self.version += 1
        cb = self.on_change
        if cb is not None:
            cb()

    # -- scheduling view ------------------------------------------------

    def hot_splits(self, now: int) -> List[Split]:
        """Runnable splits ordered by priority (index 0 = primary)."""
        raise NotImplementedError

    def all_splits(self) -> Iterable[Split]:
        raise NotImplementedError

    def slot_masks(self, now: int) -> Tuple[int, int, int]:
        """Thread masks of the three context slots (matrix scoreboard)."""
        m0 = m1 = 0
        hot = self.hot_splits(now)
        if hot:
            m0 = hot[0].mask
            if len(hot) > 1:
                m1 = hot[1].mask
        return m0, m1, self.live_mask() & ~(m0 | m1)

    def live_mask(self) -> int:
        """The warp's live threads: launched and not exited.  The
        splits partition them (:meth:`check_invariants`), so no split
        walk is needed."""
        return self.launch_mask & ~self.exited_mask

    @property
    def done(self) -> bool:
        """No live thread (so, by the invariant, no split) is left."""
        return not self.launch_mask & ~self.exited_mask

    # -- mutation --------------------------------------------------------

    def branch(
        self,
        split: Split,
        taken_mask: int,
        target_pc: int,
        reconv_pc: Optional[int],
        now: int,
    ) -> bool:
        """Apply a branch outcome; returns True when it diverged.

        ``reconv_pc`` is the compiler-computed IPDOM — used by the
        stack model, ignored by the PC-ordered models.
        """
        raise NotImplementedError

    def advance(self, split: Split, now: int) -> None:
        """Move past a non-branch instruction (PC + 1)."""
        raise NotImplementedError

    def exit_threads(self, split: Split, mask: int, now: int) -> None:
        """Retire ``mask`` threads (EXIT instruction)."""
        self._touch()
        self.exited_mask |= mask
        split.set_mask(split.mask & ~mask)

    def park(self, split: Split, now: int) -> None:
        """Suspend at a CTA barrier."""
        self._touch()
        split.parked = True
        self.parked_threads += split.mask.bit_count()

    def unpark_all(self, now: int) -> None:
        """Barrier release: every parked split resumes at PC + 1."""
        raise NotImplementedError

    # -- the split life cycle ----------------------------------------------

    def _split_off(self, split: Split, taken_mask: int, target_pc: int) -> Optional[Split]:
        """Apply a branch outcome to ``split``.  Uniform: move its PC,
        return None.  Divergent: ``split`` keeps the taken threads at
        ``target_pc``; the fall-through sibling at PC + 1, behind the
        same redirect gate, is returned for the model to place."""
        ft_mask = split.mask & ~taken_mask
        taken_mask &= split.mask
        if not ft_mask or not taken_mask:
            split.pc = target_pc if taken_mask else split.pc + 1
            return None
        self._touch()
        sibling = Split(split.pc + 1, ft_mask, self.lane_perm)
        sibling.redirect_ready_at = split.redirect_ready_at
        split.set_mask(taken_mask)
        split.pc = target_pc
        return sibling

    def _fold(self, into: Split, split: Split) -> None:
        """Merge ``split`` into same-PC ``into`` behind the later gate;
        ``split`` is left dead (any stale scheduler pick is void)."""
        into.set_mask(into.mask | split.mask)
        into.redirect_ready_at = max(into.redirect_ready_at, split.redirect_ready_at)
        split.set_mask(0)
        self.merge_count += 1

    def _release(self, parked: Iterable[Split]) -> None:
        """Barrier release bookkeeping: ``parked`` resume at PC + 1."""
        self._touch()
        for split in parked:
            split.parked = False
            split.pc += 1
        self.parked_threads = 0

    # -- invariants (used by tests) --------------------------------------

    def check_invariants(self) -> None:
        """Masks are pairwise disjoint and partition the live threads:
        the split walk :meth:`live_mask` and :attr:`done` rely on."""
        seen = 0
        for s in self.all_splits():
            if s.mask == 0:
                raise AssertionError("empty split %r" % s)
            if seen & s.mask:
                raise AssertionError("overlapping splits in %r" % self)
            seen |= s.mask
        expected = self.launch_mask & ~self.exited_mask
        if seen != expected:
            raise AssertionError(
                "live mask %#x != launch-exited %#x" % (seen, expected)
            )
