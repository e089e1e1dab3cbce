"""Timing-side warp container binding functional and timing state."""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappush
from typing import List, Optional, Sequence, Tuple

from repro.functional.executor import FunctionalWarp, LaunchRows
from repro.functional.memory import SharedMemory
from repro.core.policy import DIVERGENCE, POLICIES
from repro.timing import lanes
from repro.timing.divergence import _NEVER, DivergenceModel, Split
from repro.timing.fetch import IBufEntry
from repro.timing.scoreboard import ScoreboardBase, make_scoreboard


def make_divergence_model(config, launch_mask: int, perm: Sequence[int]) -> DivergenceModel:
    """Instantiate the divergence model of ``config``'s policy."""
    model = DIVERGENCE.get(POLICIES.get(config.mode).divergence)
    return model.for_config(config, launch_mask, perm)


class TimingWarp:
    """One resident warp: divergence model, scoreboard, register file,
    instruction-buffer ways."""

    __slots__ = (
        "wid",
        "cta_id",
        "config",
        "lane_perm",
        "fwarp",
        "model",
        "scoreboard",
        "done",
        "wake_cache",
        "wake_version",
        "slot_masks",
        "slots_seen",
        "ibuf",
        "issue_woken",
        "fetch_woken",
        "timer",
        "cand0",
        "cand1",
        "suspended",
        "_issue_wakes",
        "_fetch_wakes",
        "_pool",
        "_units",
        "_timers",
        "matrix_sb",
        "__weakref__",  # so a test can watch a retired warp go
    )

    def __init__(
        self,
        wid: int,
        cta_id: int,
        config,
        launch: LaunchRows,
        index: int,
        shared: SharedMemory,
    ) -> None:
        """Warp ``index`` of CTA ``cta_id`` in slot ``wid``; its thread
        identity comes from the launch's shared ``launch`` rows."""
        self.wid = wid
        self.cta_id = cta_id
        self.config = config
        self.lane_perm = lanes.permutation(
            config.lane_shuffle, wid, config.warp_width, config.warp_count
        )
        self.fwarp = FunctionalWarp(launch, wid, index, cta_id, shared)
        # A partial warp's threads past the CTA are masked out of the
        # launch mask and never execute.
        launch_mask = launch.threads(index)[3]
        self.model = make_divergence_model(config, launch_mask, self.lane_perm)
        self.scoreboard: ScoreboardBase = make_scoreboard(
            config.scoreboard_kind, config.scoreboard_entries
        )
        # Matrix scoreboards track per-context rows, so issue and
        # barrier release must feed them slot transitions (hoisted
        # from a per-issue string compare).
        self.matrix_sb = self.scoreboard.kind == "matrix"
        # The model's slot masks as last read, valid while
        # ``model.slot_version == slots_seen`` (see SM._slot_masks).
        self.slot_masks: Tuple[int, int, int] = (0, 0, 0)
        self.slots_seen = -1
        self.done = False
        # Sorted split wake-up cycles, valid while the divergence
        # model's mutation counter equals ``wake_version`` (see
        # StreamingMultiprocessor.next_event_cycle).
        self.wake_cache: Sequence[int] = ()
        self.wake_version = -1
        # The warp's instruction-buffer ways, one per hot context (see
        # FetchEngine); a warp launched into a retired one's slot starts
        # with empty ones of its own.
        self.ibuf: List[Optional[IBufEntry]] = [None] * self.model.hot_capacity
        # Wake state.  The scheduler and the fetch engine each keep a
        # verdict per warp (its ready-set candidates; whether fetch has
        # anything to do) and re-derive it only for warps on their
        # woken list.  Every event that could change a verdict goes
        # through :meth:`wake` / :meth:`wake_issue`, and verdicts that
        # expire with time alone (decode, branch redirect, the SBI
        # settle wake) through :meth:`wake_at`; nothing else may write
        # these fields (reprolint ``wake-site-discipline``).
        self.issue_woken = False
        self.fetch_woken = False
        #: Earliest outstanding timed wake (``_NEVER`` = none).
        self.timer = _NEVER
        #: The warp's ready-set candidates, hot slot 0 / 1 (slot 1 is
        #: only tracked by the SBI dual front-end); ``suspended`` marks
        #: a ready slot-1 instruction held by SBI's selective
        #: synchronization barrier.
        self.cand0: Optional[Tuple] = None
        self.cand1: Optional[Tuple] = None
        self.suspended = False

    # -- wake / sleep helpers ---------------------------------------------

    def attach(
        self,
        issue_wakes: List["TimingWarp"],
        fetch_wakes: List["TimingWarp"],
        timers: List[Tuple[int, int, int, "TimingWarp"]],
        pool: List[Tuple],
        units: Sequence[int],
    ) -> None:
        """Bind the warp to its SM at CTA launch: the scheduler's and
        the fetch engine's woken lists, the SM's timed-wake heap, the
        scheduler's pool and unit table, and the model's change hook
        (:meth:`wake`).  The launch itself is a wake.  :meth:`detach`
        undoes all of it."""
        self._issue_wakes = issue_wakes
        self._fetch_wakes = fetch_wakes
        self._timers = timers
        self._pool = pool
        self._units = units
        self.model.on_change = self.wake
        self.wake()

    def detach(self) -> None:
        """Undo :meth:`attach` when the warp's CTA frees its slots
        (:meth:`StreamingMultiprocessor._retire_warp
        <repro.core.sm.StreamingMultiprocessor._retire_warp>`) or its
        run ends (:meth:`GPUDevice.release
        <repro.core.gpu.GPUDevice.release>`).

        Each edge :meth:`attach` made closes a reference cycle: the
        model's ``on_change`` is this warp's bound :meth:`wake`, a
        candidate tuple holds the warp, and so may the lists and the
        heap the warp appends itself to.  Detached, the warp (with its
        register file, model, scoreboard and the CTA's shared memory)
        goes by refcount once the SM lets go of it, not at the next
        full collection.  The candidates on record leave the pool with
        it, and a timed wake still on the heap or a verdict waiting on
        the scoreboard is dropped: nothing wakes a detached warp.
        """
        self.model.on_change = None
        pool = self._pool
        if self.cand0 is not None:
            pool.remove(self.cand0)
        if self.cand1 is not None and not self.suspended:
            pool.remove(self.cand1)
        self.cand0 = self.cand1 = None
        self.suspended = False
        timers = self._timers
        kept = [timer for timer in timers if timer[3] is not self]
        if len(kept) != len(timers):
            timers[:] = kept
            heapify(timers)
        self.timer = _NEVER
        self.scoreboard.awaited = False
        del self._issue_wakes, self._fetch_wakes, self._timers, self._pool, self._units

    def wake(self) -> None:
        """What this warp can issue or fetch may have changed
        (divergence-model change, issue, CTA launch, a due timer).

        With every buffer way empty and no candidate on record (the
        pick drops what it issues) a probe would find and change
        nothing — the fill that provides a tag to match is the verdict
        (:meth:`ready`) — so only the fetch side wakes.
        """
        if not self.issue_woken and (
            any(self.ibuf) or self.cand0 is not None or self.cand1 is not None
        ):
            self.issue_woken = True
            self._issue_wakes.append(self)
        if not self.fetch_woken:
            self.fetch_woken = True
            self._fetch_wakes.append(self)

    def wake_issue(self) -> None:
        """What this warp can issue may have changed, what it can
        fetch has not (scoreboard release, instruction-buffer fill)."""
        if not self.issue_woken:
            self.issue_woken = True
            self._issue_wakes.append(self)

    def ready(self, split: Split, entry: IBufEntry) -> None:
        """Slot 0 can issue ``entry`` (from the cycle after its fetch):
        a verdict known without a probe — a fill or a release the
        scoreboard accepts — joins the ready set as ``_refresh`` would
        record it, with the settle-wake timer a probe would register."""
        cand = (entry.fetch_cycle, self.wid, 0, self, split, entry, self._units[entry.pc])
        insort(self._pool, cand)
        self.cand0 = cand
        settle = self.model._settle_wake
        if settle < self.timer:
            self.wake_at(settle)

    def wake_at(self, cycle: int) -> None:
        """Timed wake: the SM calls :meth:`timer_due` at ``cycle``
        unless an earlier timer is already outstanding (its firing
        re-derives the verdicts, which re-register what is left)."""
        if cycle < self.timer:
            self.timer = cycle
            # (wid, cta) is unique per resident warp, so the heap never
            # compares warps.
            heappush(self._timers, (cycle, self.wid, self.cta_id, self))

    def timer_due(self) -> None:
        """The SM popped this warp's timed wake."""
        self.timer = _NEVER
        self.wake()

    def __repr__(self) -> str:
        return "TimingWarp(wid=%d, cta=%d%s)" % (
            self.wid,
            self.cta_id,
            ", done" if self.done else "",
        )
